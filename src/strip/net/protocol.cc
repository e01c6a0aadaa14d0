#include "strip/net/protocol.h"

#include <algorithm>

#include "strip/common/byteio.h"
#include "strip/feed/wire.h"

namespace strip {

namespace {

/// Finishing check every strict decoder ends with: trailing bytes after a
/// fully parsed message mean the peer and we disagree about the encoding —
/// reject rather than guess.
Status ExpectExhausted(const ByteReader& r, const char* what) {
  if (!r.exhausted()) {
    return Status::InvalidArgument(StrFormat(
        "%s payload has %zu trailing bytes", what, r.remaining()));
  }
  return Status::OK();
}

void PutValues(const std::vector<Value>& vs, std::string* out) {
  PutU32(static_cast<uint32_t>(vs.size()), out);
  for (const Value& v : vs) AppendValue(v, out);
}

Result<std::vector<Value>> ReadValues(ByteReader& r, std::string_view buf) {
  STRIP_ASSIGN_OR_RETURN(uint32_t n, r.U32());
  std::vector<Value> vs;
  // One byte minimum per value bounds a hostile count (cf. the wire-v1
  // reserve clamp).
  vs.reserve(std::min<size_t>(n, r.remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    size_t offset = r.pos();
    STRIP_ASSIGN_OR_RETURN(Value v, DecodeValue(buf, &offset));
    STRIP_RETURN_IF_ERROR(r.Skip(offset - r.pos()));
    vs.push_back(std::move(v));
  }
  return vs;
}

}  // namespace

const char* SessionPriorityName(SessionPriority p) {
  switch (p) {
    case SessionPriority::kLow: return "low";
    case SessionPriority::kNormal: return "normal";
    case SessionPriority::kHigh: return "high";
  }
  return "unknown";
}

bool IsShedRefusal(const Status& status) {
  return status.code() == StatusCode::kAborted &&
         status.message().rfind(kShedPrefix, 0) == 0;
}

// --- Hello -------------------------------------------------------------------

std::string Encode(const HelloRequest& m) {
  std::string out;
  PutU8(m.protocol_version, &out);
  PutU8(static_cast<uint8_t>(m.priority), &out);
  PutLengthPrefixed(m.client_name, &out);
  return out;
}

Result<HelloRequest> DecodeHelloRequest(std::string_view payload) {
  ByteReader r(payload);
  HelloRequest m;
  STRIP_ASSIGN_OR_RETURN(m.protocol_version, r.U8());
  STRIP_ASSIGN_OR_RETURN(uint8_t prio, r.U8());
  if (prio > static_cast<uint8_t>(SessionPriority::kHigh)) {
    return Status::InvalidArgument(
        StrFormat("bad session priority %u", prio));
  }
  m.priority = static_cast<SessionPriority>(prio);
  STRIP_ASSIGN_OR_RETURN(m.client_name, r.LengthPrefixed());
  STRIP_RETURN_IF_ERROR(ExpectExhausted(r, "hello"));
  return m;
}

std::string Encode(const HelloResponse& m) {
  std::string out;
  PutU64(m.session_id, &out);
  return out;
}

Result<HelloResponse> DecodeHelloResponse(std::string_view payload) {
  ByteReader r(payload);
  HelloResponse m;
  STRIP_ASSIGN_OR_RETURN(m.session_id, r.U64());
  STRIP_RETURN_IF_ERROR(ExpectExhausted(r, "hello_ok"));
  return m;
}

// --- Prepare -----------------------------------------------------------------

std::string Encode(const PrepareRequest& m) {
  std::string out;
  PutLengthPrefixed(m.sql, &out);
  return out;
}

Result<PrepareRequest> DecodePrepareRequest(std::string_view payload) {
  ByteReader r(payload);
  PrepareRequest m;
  STRIP_ASSIGN_OR_RETURN(m.sql, r.LengthPrefixed());
  STRIP_RETURN_IF_ERROR(ExpectExhausted(r, "prepare"));
  return m;
}

std::string Encode(const PrepareResponse& m) {
  std::string out;
  PutU64(m.handle, &out);
  PutU32(m.num_params, &out);
  return out;
}

Result<PrepareResponse> DecodePrepareResponse(std::string_view payload) {
  ByteReader r(payload);
  PrepareResponse m;
  STRIP_ASSIGN_OR_RETURN(m.handle, r.U64());
  STRIP_ASSIGN_OR_RETURN(m.num_params, r.U32());
  STRIP_RETURN_IF_ERROR(ExpectExhausted(r, "prepared"));
  return m;
}

// --- Exec --------------------------------------------------------------------

std::string Encode(const ExecRequest& m) {
  std::string out;
  PutU64(m.handle, &out);
  PutValues(m.params, &out);
  return out;
}

Result<ExecRequest> DecodeExecRequest(std::string_view payload) {
  ByteReader r(payload);
  ExecRequest m;
  STRIP_ASSIGN_OR_RETURN(m.handle, r.U64());
  STRIP_ASSIGN_OR_RETURN(m.params, ReadValues(r, payload));
  STRIP_RETURN_IF_ERROR(ExpectExhausted(r, "exec"));
  return m;
}

std::string Encode(const ExecResponse& m) {
  std::string out;
  PutU32(static_cast<uint32_t>(m.columns.size()), &out);
  for (const std::string& c : m.columns) PutLengthPrefixed(c, &out);
  PutU32(static_cast<uint32_t>(m.rows.size()), &out);
  for (const std::vector<Value>& row : m.rows) PutValues(row, &out);
  PutU64(static_cast<uint64_t>(m.affected), &out);
  return out;
}

Result<ExecResponse> DecodeExecResponse(std::string_view payload) {
  ByteReader r(payload);
  ExecResponse m;
  STRIP_ASSIGN_OR_RETURN(uint32_t ncols, r.U32());
  m.columns.reserve(std::min<size_t>(ncols, r.remaining()));
  for (uint32_t i = 0; i < ncols; ++i) {
    STRIP_ASSIGN_OR_RETURN(std::string c, r.LengthPrefixed());
    m.columns.push_back(std::move(c));
  }
  STRIP_ASSIGN_OR_RETURN(uint32_t nrows, r.U32());
  m.rows.reserve(std::min<size_t>(nrows, r.remaining()));
  for (uint32_t i = 0; i < nrows; ++i) {
    STRIP_ASSIGN_OR_RETURN(std::vector<Value> row, ReadValues(r, payload));
    m.rows.push_back(std::move(row));
  }
  STRIP_ASSIGN_OR_RETURN(uint64_t affected, r.U64());
  m.affected = static_cast<int64_t>(affected);
  STRIP_RETURN_IF_ERROR(ExpectExhausted(r, "rows"));
  return m;
}

// --- FeedAppend --------------------------------------------------------------

std::string Encode(const FeedAppendRequest& m) {
  std::string out;
  PutLengthPrefixed(m.table, &out);
  PutU32(static_cast<uint32_t>(m.records.size()), &out);
  for (const FeedRecord& rec : m.records) AppendFeedRecord(rec, &out);
  return out;
}

Result<FeedAppendRequest> DecodeFeedAppendRequest(std::string_view payload) {
  ByteReader r(payload);
  FeedAppendRequest m;
  STRIP_ASSIGN_OR_RETURN(m.table, r.LengthPrefixed());
  STRIP_ASSIGN_OR_RETURN(uint32_t n, r.U32());
  m.records.reserve(std::min<size_t>(n, r.remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    size_t offset = r.pos();
    STRIP_ASSIGN_OR_RETURN(FeedRecord rec, DecodeFeedRecord(payload, &offset));
    STRIP_RETURN_IF_ERROR(r.Skip(offset - r.pos()));
    m.records.push_back(std::move(rec));
  }
  STRIP_RETURN_IF_ERROR(ExpectExhausted(r, "feed_append"));
  return m;
}

std::string Encode(const FeedAppendResponse& m) {
  std::string out;
  PutU64(m.lsn, &out);
  PutU32(m.accepted, &out);
  return out;
}

Result<FeedAppendResponse> DecodeFeedAppendResponse(
    std::string_view payload) {
  ByteReader r(payload);
  FeedAppendResponse m;
  STRIP_ASSIGN_OR_RETURN(m.lsn, r.U64());
  STRIP_ASSIGN_OR_RETURN(m.accepted, r.U32());
  STRIP_RETURN_IF_ERROR(ExpectExhausted(r, "appended"));
  return m;
}

// --- Admin -------------------------------------------------------------------

std::string Encode(const AdminRequest& m) {
  std::string out;
  PutU8(static_cast<uint8_t>(m.op), &out);
  return out;
}

Result<AdminRequest> DecodeAdminRequest(std::string_view payload) {
  ByteReader r(payload);
  AdminRequest m;
  STRIP_ASSIGN_OR_RETURN(uint8_t op, r.U8());
  if (op < static_cast<uint8_t>(AdminOp::kDrain) ||
      op > static_cast<uint8_t>(AdminOp::kShutdown)) {
    return Status::InvalidArgument(StrFormat("bad admin op %u", op));
  }
  m.op = static_cast<AdminOp>(op);
  STRIP_RETURN_IF_ERROR(ExpectExhausted(r, "admin"));
  return m;
}

std::string Encode(const AdminResponse& m) {
  std::string out;
  PutU64(m.lsn, &out);
  PutLengthPrefixed(m.body, &out);
  return out;
}

Result<AdminResponse> DecodeAdminResponse(std::string_view payload) {
  ByteReader r(payload);
  AdminResponse m;
  STRIP_ASSIGN_OR_RETURN(m.lsn, r.U64());
  STRIP_ASSIGN_OR_RETURN(m.body, r.LengthPrefixed());
  STRIP_RETURN_IF_ERROR(ExpectExhausted(r, "admin_ok"));
  return m;
}

// --- Error -------------------------------------------------------------------

std::string Encode(const ErrorResponse& m) {
  std::string out;
  PutU8(static_cast<uint8_t>(m.code), &out);
  PutLengthPrefixed(m.message, &out);
  return out;
}

Result<ErrorResponse> DecodeErrorResponse(std::string_view payload) {
  ByteReader r(payload);
  ErrorResponse m;
  STRIP_ASSIGN_OR_RETURN(uint8_t code, r.U8());
  if (code > static_cast<uint8_t>(StatusCode::kUnimplemented)) {
    return Status::InvalidArgument(StrFormat("bad status code %u", code));
  }
  m.code = static_cast<StatusCode>(code);
  STRIP_ASSIGN_OR_RETURN(m.message, r.LengthPrefixed());
  STRIP_RETURN_IF_ERROR(ExpectExhausted(r, "error"));
  return m;
}

Status ToStatus(const ErrorResponse& e) {
  if (e.code == StatusCode::kOk) {
    return Status::Internal("error frame carried StatusCode::kOk");
  }
  return Status(e.code, e.message);
}

}  // namespace strip

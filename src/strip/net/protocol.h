#ifndef STRIP_NET_PROTOCOL_H_
#define STRIP_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/feed/feed.h"
#include "strip/feed/framing.h"

namespace strip {

/// Payload encodings for each FrameType (DESIGN.md §2.6): the typed
/// request/response messages of the strip_server session protocol, built
/// on the tagged value encoding of wire v1 and the byteio primitives.
///
/// Every decoder is strict: it validates lengths against the remaining
/// bytes before allocating, rejects unknown enumerators, and requires the
/// payload to be fully consumed — a frame that passed its CRC can still be
/// nonsense (a buggy or hostile client), and nonsense must fail cleanly,
/// never crash or over-allocate.

/// Connection priority, declared at Hello. Under overload the server sheds
/// kLow sessions first (refusing new work, then the connection) while
/// kHigh keeps flowing — the scheduler's value-density idea applied at the
/// process boundary.
enum class SessionPriority : uint8_t { kLow = 0, kNormal = 1, kHigh = 2 };

const char* SessionPriorityName(SessionPriority p);

/// Admission control refuses work with a retryable kAborted whose message
/// starts with kShedPrefix. A wait-die abort that outlived its restarts is
/// kAborted too, but a failure, not a shed; IsShedRefusal tells them apart.
inline constexpr char kShedPrefix[] = "server is shedding";
bool IsShedRefusal(const Status& status);

struct HelloRequest {
  uint8_t protocol_version = kFrameVersion;
  SessionPriority priority = SessionPriority::kNormal;
  std::string client_name;  // for logs / metrics; may be empty
};

struct HelloResponse {
  uint64_t session_id = 0;
};

struct PrepareRequest {
  std::string sql;
};

struct PrepareResponse {
  uint64_t handle = 0;
  uint32_t num_params = 0;  // '?' placeholders the statement expects
};

struct ExecRequest {
  uint64_t handle = 0;
  std::vector<Value> params;
};

struct ExecResponse {
  std::vector<std::string> columns;        // empty for DML
  std::vector<std::vector<Value>> rows;    // SELECT results
  int64_t affected = 0;                    // DML row count
};

struct FeedAppendRequest {
  std::string table;
  std::vector<FeedRecord> records;  // wire-v1 encoded on the wire
};

struct FeedAppendResponse {
  uint64_t lsn = 0;        // WAL sequence the batch is durable through
  uint32_t accepted = 0;   // records admitted (== records sent on success)
};

enum class AdminOp : uint8_t {
  kDrain = 1,       // block until the engine is quiescent
  kCheckpoint = 2,  // snapshot (tables + pending rule tasks), truncate WAL
  kMetrics = 3,     // registry snapshot JSON in `body`
  kHealth = 4,      // watchdog verdict JSON in `body`
  kShutdown = 5,    // graceful stop (checkpoint + exit)
};

struct AdminRequest {
  AdminOp op = AdminOp::kMetrics;
};

struct AdminResponse {
  uint64_t lsn = 0;   // checkpoint/drain: WAL position at completion
  std::string body;   // metrics/health: JSON document
};

struct ErrorResponse {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

std::string Encode(const HelloRequest& m);
std::string Encode(const HelloResponse& m);
std::string Encode(const PrepareRequest& m);
std::string Encode(const PrepareResponse& m);
std::string Encode(const ExecRequest& m);
std::string Encode(const ExecResponse& m);
std::string Encode(const FeedAppendRequest& m);
std::string Encode(const FeedAppendResponse& m);
std::string Encode(const AdminRequest& m);
std::string Encode(const AdminResponse& m);
std::string Encode(const ErrorResponse& m);

Result<HelloRequest> DecodeHelloRequest(std::string_view payload);
Result<HelloResponse> DecodeHelloResponse(std::string_view payload);
Result<PrepareRequest> DecodePrepareRequest(std::string_view payload);
Result<PrepareResponse> DecodePrepareResponse(std::string_view payload);
Result<ExecRequest> DecodeExecRequest(std::string_view payload);
Result<ExecResponse> DecodeExecResponse(std::string_view payload);
Result<FeedAppendRequest> DecodeFeedAppendRequest(std::string_view payload);
Result<FeedAppendResponse> DecodeFeedAppendResponse(std::string_view payload);
Result<AdminRequest> DecodeAdminRequest(std::string_view payload);
Result<AdminResponse> DecodeAdminResponse(std::string_view payload);
Result<ErrorResponse> DecodeErrorResponse(std::string_view payload);

/// Reconstitutes an ErrorResponse as the Status it carries.
Status ToStatus(const ErrorResponse& e);

}  // namespace strip

#endif  // STRIP_NET_PROTOCOL_H_

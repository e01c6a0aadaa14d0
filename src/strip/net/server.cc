#include "strip/net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "strip/common/logging.h"
#include "strip/common/string_util.h"

namespace strip {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

/// Backpressure water marks on a connection's unflushed output. Above the
/// high mark the server stops decoding the connection's requests and drops
/// EPOLLIN interest; below the low mark it resumes. A single reply can be
/// up to the 16 MiB frame cap — the marks bound how much MORE work gets
/// dispatched on top of it, not the size of one reply.
constexpr size_t kOutbufHighWater = 4u << 20;
constexpr size_t kOutbufLowWater = 1u << 20;

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// '?' placeholders outside single-quoted string literals — what Exec must
/// bind. The parser owns real validation; this only feeds PrepareResponse.
uint32_t CountParams(const std::string& sql) {
  uint32_t n = 0;
  bool in_string = false;
  for (char c : sql) {
    if (c == '\'') in_string = !in_string;
    else if (c == '?' && !in_string) ++n;
  }
  return n;
}

Frame ErrorFrame(uint64_t seq, const Status& status) {
  Frame f;
  f.type = FrameType::kError;
  f.seq = seq;
  ErrorResponse err;
  err.code = status.code();
  err.message = status.message();
  f.payload = Encode(err);
  return f;
}

Frame Reply(FrameType type, uint64_t seq, std::string payload) {
  Frame f;
  f.type = type;
  f.seq = seq;
  f.payload = std::move(payload);
  return f;
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  std::unique_ptr<Server> server(new Server(std::move(options)));
  STRIP_RETURN_IF_ERROR(server->Init());
  return server;
}

Status Server::Init() {
  // A network server lives on the wall clock; the simulated executor's
  // virtual time has nobody to drive it.
  options_.engine.mode = ExecutorMode::kThreaded;
  db_ = std::make_unique<Database>(options_.engine);

  if (!options_.schema_sql.empty()) {
    STRIP_RETURN_IF_ERROR(db_->ExecuteScript(options_.schema_sql));
  }
  if (options_.bootstrap) {
    STRIP_RETURN_IF_ERROR(options_.bootstrap(*db_));
  }
  for (const std::string& table : options_.feed_tables) {
    STRIP_ASSIGN_OR_RETURN(auto importer,
                           FeedImporter::Create(db_.get(), table));
    importers_.emplace(table, std::move(importer));
  }

  if (!options_.data_dir.empty()) {
    durable_ = std::make_unique<DurableLog>(DurableLog::Options{
        options_.data_dir, options_.sync});
    auto recovered = durable_->Recover(*db_, [this](const std::string& table) {
      return FindImporter(table);
    });
    if (!recovered.ok()) {
      // An unrecovered log has no writer: Stop() must not checkpoint it.
      durable_.reset();
      return recovered.status();
    }
    recovery_stats_ = *recovered;
    // Serve only after replay has fully applied: a client that was acked
    // before the crash must read its own writes immediately on reconnect.
    db_->threaded()->Drain();
  }

  MetricsRegistry& m = db_->metrics();
  accepted_ = m.counter("server.accepted");
  closed_ = m.counter("server.closed");
  requests_ = m.counter("server.requests");
  errors_ = m.counter("server.errors");
  corrupt_frames_ = m.counter("server.corrupt_frames");
  shed_sessions_ = m.counter("server.shed_sessions");
  shed_requests_ = m.counter("server.shed_requests");
  feed_records_ = m.counter("server.feed_records");
  checkpoints_ = m.counter("server.checkpoints");
  checkpoint_pending_tasks_ = m.counter("server.checkpoint_pending_tasks");
  checkpoint_us_ = m.histogram("server.checkpoint_us");
  backpressure_pauses_ = m.counter("server.backpressure_pauses");
  wal_rollbacks_ = m.counter("server.wal_rollbacks");
  bytes_in_ = m.counter("server.bytes_in");
  bytes_out_ = m.counter("server.bytes_out");
  request_us_ = m.histogram("server.request_us");
  m.RegisterCallback("server.connections",
                     [this] { return static_cast<double>(conns_.size()); });
  m.RegisterCallback("server.wal_bytes", [this] {
    return durable_ == nullptr ? 0.0
                               : static_cast<double>(durable_->wal_bytes());
  });
  m.RegisterCallback("server.admission_state", [this] {
    return static_cast<double>(admission_state());
  });

  bool watchdog_enabled =
      options_.watchdog_period_seconds > 0 &&
      (options_.slo.staleness_p99_us > 0 ||
       options_.slo.queue_wait_p99_us > 0 ||
       options_.slo.max_lock_abort_rate > 0);
  if (watchdog_enabled) {
    watchdog_ = std::make_unique<Watchdog>(&db_->metrics(), options_.slo);
    watchdog_->set_on_shed([](const WatchdogVerdict& v) {
      STRIP_LOG(WARN, "admission control tripped to shed: %s",
                v.ToJson().c_str());
    });
  }

  STRIP_ASSIGN_OR_RETURN(
      listener_,
      Socket::Listen(options_.host, options_.port, options_.backlog, &port_));

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Internal(StrFormat("epoll_create1: %s",
                                      std::strerror(errno)));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Status::Internal(StrFormat("eventfd: %s", std::strerror(errno)));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    return Status::Internal(StrFormat("epoll_ctl(listener): %s",
                                      std::strerror(errno)));
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::Internal(StrFormat("epoll_ctl(wakefd): %s",
                                      std::strerror(errno)));
  }

  running_.store(true, std::memory_order_relaxed);
  epoll_thread_ = std::thread([this] { EpollLoop(); });
  housekeeping_thread_ = std::thread([this] { HousekeepingLoop(); });
  STRIP_LOG(INFO, "strip_server listening on %s:%u (%s)",
            options_.host.c_str(), static_cast<unsigned>(port_),
            durable_ == nullptr ? "ephemeral" : options_.data_dir.c_str());
  return Status::OK();
}

Server::~Server() { Stop(); }

void Server::Stop() {
  std::call_once(stop_once_, [this] {
    running_.store(false, std::memory_order_relaxed);
    WakeEpoll();
    {
      std::lock_guard<std::mutex> lk(stop_mu_);
      stop_cv_.notify_all();
    }
    if (epoll_thread_.joinable()) epoll_thread_.join();
    if (housekeeping_thread_.joinable()) housekeeping_thread_.join();
    conns_.clear();
    listener_.Close();
    if (epoll_fd_ >= 0) ::close(std::exchange(epoll_fd_, -1));
    if (wake_fd_ >= 0) ::close(std::exchange(wake_fd_, -1));
    db_->threaded()->Drain();
    if (durable_ != nullptr) {
      auto lsn = Checkpoint();
      if (!lsn.ok()) {
        STRIP_LOG(WARN, "final checkpoint failed: %s",
                  lsn.status().message().c_str());
      }
    }
    STRIP_LOG(INFO, "strip_server stopped");
  });
}

void Server::Wait() {
  std::unique_lock<std::mutex> lk(stop_mu_);
  stop_cv_.wait(lk, [this] {
    return !running_.load(std::memory_order_relaxed);
  });
}

Result<uint64_t> Server::Checkpoint() {
  // Holding dispatch_mu_ stops new requests from starting, so no
  // transaction is open outside the executor while it captures.
  std::lock_guard<std::mutex> lk(dispatch_mu_);
  return CheckpointLocked();
}

Result<uint64_t> Server::CheckpointLocked() {
  if (durable_ == nullptr) {
    return Status::FailedPrecondition(
        "server has no data_dir: nothing to checkpoint");
  }
  const int64_t t0 = SteadyMicros();
  auto done = durable_->Checkpoint(*db_);
  checkpoint_us_->Observe(SteadyMicros() - t0);
  STRIP_RETURN_IF_ERROR(done.status());
  checkpoints_->Add();
  checkpoint_pending_tasks_->Add(done->pending_tasks);
  return done->lsn;
}

void Server::WakeEpoll() {
  if (wake_fd_ >= 0) {
    uint64_t one = 1;
    ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    (void)n;
  }
}

void Server::EpollLoop() {
  epoll_event events[64];
  while (running_.load(std::memory_order_relaxed)) {
    int n = ::epoll_wait(epoll_fd_, events, 64, 500);
    if (n < 0) {
      if (errno == EINTR) continue;
      STRIP_LOG(ERROR, "epoll_wait: %s", std::strerror(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == listener_.fd()) {
        AcceptPending();
      } else if (fd == wake_fd_) {
        uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
      } else {
        HandleConnEvent(fd, events[i].events);
      }
      if (!running_.load(std::memory_order_relaxed)) break;
    }
  }
}

void Server::HousekeepingLoop() {
  const auto period = std::chrono::duration<double>(
      options_.watchdog_period_seconds > 0 ? options_.watchdog_period_seconds
                                           : 0.5);
  std::unique_lock<std::mutex> lk(stop_mu_);
  while (running_.load(std::memory_order_relaxed)) {
    stop_cv_.wait_for(lk, period, [this] {
      return !running_.load(std::memory_order_relaxed);
    });
    if (!running_.load(std::memory_order_relaxed)) break;
    lk.unlock();
    if (watchdog_ != nullptr) {
      WatchdogVerdict verdict = watchdog_->Evaluate(db_->Now());
      admission_state_.store(verdict.state, std::memory_order_relaxed);
    }
    if (durable_ != nullptr && options_.checkpoint_wal_bytes > 0 &&
        durable_->wal_bytes() >= options_.checkpoint_wal_bytes) {
      auto lsn = Checkpoint();
      if (!lsn.ok()) {
        STRIP_LOG(WARN, "auto-checkpoint failed: %s",
                  lsn.status().message().c_str());
      }
    }
    lk.lock();
  }
}

void Server::AcceptPending() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      STRIP_LOG(WARN, "accept: %s", accepted.status().message().c_str());
      return;
    }
    if (!accepted->valid()) return;  // nothing more pending
    int fd = accepted->fd();
    if (conns_.size() >= static_cast<size_t>(options_.max_connections)) {
      // Refuse with a frame the client can decode, then close. seq 0: the
      // refusal precedes any request.
      Frame f = ErrorFrame(
          0, Status::Aborted(StrFormat(
                 "server at max_connections (%d) — retry later",
                 options_.max_connections)));
      std::string wire = EncodeFrame(f);
      (void)accepted->WriteAll(wire);
      shed_sessions_->Add();
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(*accepted);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      STRIP_LOG(ERROR, "epoll_ctl(add conn): %s", std::strerror(errno));
      continue;  // conn destructor closes the socket
    }
    accepted_->Add();
    conns_.emplace(fd, std::move(conn));
  }
}

void Server::CloseConn(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  conns_.erase(fd);  // Socket destructor closes fd
  closed_->Add();
}

void Server::HandleConnEvent(int fd, uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();

  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConn(fd);
    return;
  }
  if ((events & EPOLLIN) != 0 && !conn->closing && !conn->paused) {
    char buf[kReadChunk];
    for (;;) {
      ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r > 0) {
        conn->inbuf.append(buf, static_cast<size_t>(r));
        bytes_in_->Add(static_cast<uint64_t>(r));
        continue;
      }
      if (r == 0) {  // peer closed
        CloseConn(fd);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(fd);
      return;
    }
  }
  // Decode/dispatch and flush alternate until a fixed point: a flush that
  // brings a paused connection under the low water mark resumes decoding
  // of the requests that were deferred while paused.
  for (;;) {
    if (!conn->closing && !conn->paused) {
      if (!DrainInbuf(conn)) {
        CloseConn(fd);
        return;
      }
    }
    if (!FlushOut(fd, conn)) {
      CloseConn(fd);
      return;
    }
    if (conn->paused &&
        conn->outbuf.size() - conn->outpos <= kOutbufLowWater) {
      conn->paused = false;
      continue;  // drain deferred frames; FlushOut re-arms EPOLLIN
    }
    break;
  }
  if (conn->closing && conn->outpos == conn->outbuf.size()) {
    CloseConn(fd);
  }
}

bool Server::DrainInbuf(Connection* conn) {
  size_t pos = 0;
  for (;;) {
    if (conn->outbuf.size() - conn->outpos >= kOutbufHighWater) {
      // Backpressure: the peer has not read what it already asked for.
      // Stop decoding (the remaining inbuf keeps, and EPOLLIN interest is
      // dropped by the next FlushOut) until a flush reaches the low mark.
      conn->paused = true;
      backpressure_pauses_->Add();
      break;
    }
    Frame frame;
    std::string error;
    FrameDecode d = TryDecodeFrame(conn->inbuf, &pos, &frame, &error);
    if (d == FrameDecode::kNeedMore) break;
    if (d == FrameDecode::kCorrupt) {
      // Framing lost = the byte stream can never be trusted again; there
      // is no resync point, so the connection dies (ISSUE: corrupt frame
      // drops the connection, never crashes the server).
      corrupt_frames_->Add();
      STRIP_LOG(WARN, "session %llu: corrupt frame: %s",
                static_cast<unsigned long long>(conn->session_id),
                error.c_str());
      return false;
    }
    HandleFrame(conn, frame);
    if (conn->closing) break;
  }
  conn->inbuf.erase(0, pos);
  return true;
}

void Server::HandleFrame(Connection* conn, const Frame& frame) {
  int64_t start = SteadyMicros();
  requests_->Add();
  Result<Frame> reply = [&]() -> Result<Frame> {
    std::lock_guard<std::mutex> lk(dispatch_mu_);
    return Dispatch(conn, frame);
  }();
  Frame out = reply.ok() ? std::move(*reply)
                         : ErrorFrame(frame.seq, reply.status());
  if (!reply.ok()) errors_->Add();
  Status append = AppendFrame(out, &conn->outbuf);
  if (!append.ok()) {
    // Response exceeds the frame cap (a SELECT returning >16 MiB).
    // AppendFrame rejected before writing anything, so the seq contract
    // still holds: send an error frame instead.
    Status too_big = Status::FailedPrecondition(
        "response exceeds the 16 MiB frame cap — narrow the query");
    STRIP_CHECK(AppendFrame(ErrorFrame(frame.seq, too_big), &conn->outbuf)
                    .ok());
    errors_->Add();
  }
  request_us_->Observe(SteadyMicros() - start);
}

Result<Frame> Server::Dispatch(Connection* conn, const Frame& frame) {
  if (!conn->hello_done && frame.type != FrameType::kHello) {
    return Status::FailedPrecondition("first frame must be Hello");
  }
  switch (frame.type) {
    case FrameType::kHello:
      return HandleHello(conn, frame);
    case FrameType::kPrepare:
      return HandlePrepare(conn, frame);
    case FrameType::kExec:
      return HandleExec(conn, frame);
    case FrameType::kFeedAppend:
      return HandleFeedAppend(conn, frame);
    case FrameType::kPing:
      return Reply(FrameType::kPong, frame.seq, frame.payload);
    case FrameType::kAdmin:
      return HandleAdmin(conn, frame);
    default:
      return Status::InvalidArgument(StrFormat(
          "frame type %u is not a request", static_cast<unsigned>(
              frame.type)));
  }
}

bool Server::ShouldShed(const Connection& conn) const {
  return admission_state() == WatchdogState::kShed &&
         conn.priority == SessionPriority::kLow;
}

Result<Frame> Server::HandleHello(Connection* conn, const Frame& frame) {
  STRIP_ASSIGN_OR_RETURN(HelloRequest req,
                         DecodeHelloRequest(frame.payload));
  if (req.protocol_version != kFrameVersion) {
    return Status::InvalidArgument(StrFormat(
        "client speaks protocol v%u, server speaks v%u",
        static_cast<unsigned>(req.protocol_version),
        static_cast<unsigned>(kFrameVersion)));
  }
  if (conn->hello_done) {
    return Status::FailedPrecondition("session already established");
  }
  if (admission_state() == WatchdogState::kShed &&
      req.priority == SessionPriority::kLow) {
    // Shedding: refuse the session outright and hang up once the error
    // frame is flushed — new low-priority load is what overload must not
    // admit (§7: staleness grows without bound once the rule system
    // cannot keep up).
    shed_sessions_->Add();
    conn->closing = true;
    return Status::Aborted(
        std::string(kShedPrefix) +
        " low-priority sessions — retry with backoff");
  }
  conn->hello_done = true;
  conn->priority = req.priority;
  conn->client_name = req.client_name;
  conn->session_id = next_session_id_++;
  HelloResponse resp;
  resp.session_id = conn->session_id;
  return Reply(FrameType::kHelloOk, frame.seq, Encode(resp));
}

Result<Frame> Server::HandlePrepare(Connection* conn, const Frame& frame) {
  STRIP_ASSIGN_OR_RETURN(PrepareRequest req,
                         DecodePrepareRequest(frame.payload));
  STRIP_ASSIGN_OR_RETURN(PreparedStatementPtr stmt, db_->Prepare(req.sql));
  PrepareResponse resp;
  resp.handle = conn->next_handle++;
  resp.num_params = CountParams(req.sql);
  conn->stmts.emplace(resp.handle, std::move(stmt));
  return Reply(FrameType::kPrepared, frame.seq, Encode(resp));
}

Result<Frame> Server::HandleExec(Connection* conn, const Frame& frame) {
  STRIP_ASSIGN_OR_RETURN(ExecRequest req, DecodeExecRequest(frame.payload));
  if (ShouldShed(*conn)) {
    shed_requests_->Add();
    return Status::Aborted(
        std::string(kShedPrefix) +
        " low-priority work — retry with backoff");
  }
  auto it = conn->stmts.find(req.handle);
  if (it == conn->stmts.end()) {
    return Status::NotFound(StrFormat(
        "unknown statement handle %llu",
        static_cast<unsigned long long>(req.handle)));
  }
  STRIP_ASSIGN_OR_RETURN(ResultSet rs, it->second->Execute(req.params));
  ExecResponse resp;
  resp.columns.reserve(static_cast<size_t>(rs.schema.num_columns()));
  for (int c = 0; c < rs.schema.num_columns(); ++c) {
    resp.columns.push_back(rs.schema.column(c).name);
  }
  resp.affected = static_cast<int64_t>(rs.rows.size());
  resp.rows = std::move(rs.rows);
  return Reply(FrameType::kRows, frame.seq, Encode(resp));
}

Result<Frame> Server::HandleFeedAppend(Connection* conn,
                                       const Frame& frame) {
  STRIP_ASSIGN_OR_RETURN(FeedAppendRequest req,
                         DecodeFeedAppendRequest(frame.payload));
  if (ShouldShed(*conn)) {
    shed_requests_->Add();
    return Status::Aborted(
        std::string(kShedPrefix) +
        " low-priority feed batches — retry with backoff");
  }
  if (durable_failed_.load(std::memory_order_relaxed)) {
    return Status::Internal(
        "durable feed log is in a failed state — restart the server to "
        "recover from the WAL");
  }
  STRIP_ASSIGN_OR_RETURN(FeedImporter * importer, FindImporter(req.table));

  // The WHOLE batch is validated against the table schema before the
  // first WAL append. A record that can never apply must be refused at
  // the wire: once durably logged, every future recovery would replay the
  // same failure — one bad client record turning into a server that can
  // never boot again.
  // Arrival stamping: clients send at == 0 ("stamp on arrival") because
  // release times live on the server's executor clock, which the client
  // cannot see. Staleness is then measured from ingestion, per the paper.
  std::vector<FeedRecord> batch = std::move(req.records);
  for (FeedRecord& rec : batch) {
    STRIP_RETURN_IF_ERROR(importer->Validate(rec));
    if (rec.at == 0) rec.at = db_->Now();
  }
  // Group commit: every record of the batch is appended, ONE fdatasync
  // makes them all durable, and only then does the ack (carrying the last
  // LSN) go out. A crash before the sync loses only unacked records; a
  // crash after replays them — idempotent keyed upserts.
  uint64_t last_lsn = 0;
  if (durable_ != nullptr) {
    const uint64_t pre_bytes = durable_->wal_bytes();
    const uint64_t pre_lsn = durable_->next_lsn();
    Status logged = [&]() -> Status {
      for (const FeedRecord& rec : batch) {
        STRIP_ASSIGN_OR_RETURN(last_lsn, durable_->Append(req.table, rec));
      }
      return durable_->Sync();
    }();
    if (!logged.ok()) {
      // Nothing applied yet: cut the batch's entries back out of the WAL
      // so the log holds exactly what was acknowledged. If even the
      // rollback fails the file's tail is unknowable — refuse all further
      // feed writes; recovery's torn-tail handling sorts it out on
      // restart.
      Status rb = durable_->RollbackTo(pre_bytes, pre_lsn);
      if (rb.ok()) {
        wal_rollbacks_->Add();
      } else {
        durable_failed_.store(true, std::memory_order_relaxed);
        STRIP_LOG(ERROR,
                  "feed append failed (%s) and WAL rollback failed (%s): "
                  "refusing further feed writes until restart",
                  logged.message().c_str(), rb.message().c_str());
      }
      return logged;
    }
  }
  // Apply synchronously (not via Submit): dispatch_mu_ serializes every
  // request, so per-key apply order equals WAL order — which is what lets
  // replay reproduce the exact pre-crash state. Rule actions triggered by
  // these commits still run asynchronously on the worker pool.
  for (const FeedRecord& rec : batch) {
    Status applied = importer->ApplyNow(rec);
    if (!applied.ok()) {
      if (durable_ != nullptr) {
        // The batch is already durable but only partially applied — live
        // state and WAL now disagree, and a committed upsert cannot be
        // un-applied. Refuse further feed writes; a restart replays the
        // WAL (the source of truth) onto the consistent state.
        durable_failed_.store(true, std::memory_order_relaxed);
        STRIP_LOG(ERROR,
                  "feed apply failed mid-batch after the WAL sync (%s): "
                  "refusing further feed writes until restart",
                  applied.message().c_str());
      }
      return applied;
    }
  }
  feed_records_->Add(batch.size());
  FeedAppendResponse resp;
  resp.lsn = last_lsn;
  resp.accepted = static_cast<uint32_t>(batch.size());
  return Reply(FrameType::kAppended, frame.seq, Encode(resp));
}

Result<Frame> Server::HandleAdmin(Connection* conn, const Frame& frame) {
  STRIP_ASSIGN_OR_RETURN(AdminRequest req,
                         DecodeAdminRequest(frame.payload));
  AdminResponse resp;
  switch (req.op) {
    case AdminOp::kDrain:
      db_->threaded()->Drain();
      resp.lsn = durable_ == nullptr ? 0 : durable_->next_lsn() - 1;
      break;
    case AdminOp::kCheckpoint: {
      // Dispatch already holds dispatch_mu_.
      STRIP_ASSIGN_OR_RETURN(resp.lsn, CheckpointLocked());
      break;
    }
    case AdminOp::kMetrics:
      resp.body = db_->metrics().SnapshotJson();
      break;
    case AdminOp::kHealth:
      // Only the atomic state is safe to read from this thread — the full
      // verdict struct belongs to the housekeeping thread.
      resp.body = StrFormat(
          "{\"state\": \"%s\", \"watchdog\": %s, \"feed_writable\": %s}",
          WatchdogStateName(admission_state()),
          watchdog_ == nullptr ? "false" : "true",
          durable_failed_.load(std::memory_order_relaxed) ? "false"
                                                          : "true");
      break;
    case AdminOp::kShutdown:
      conn->closing = true;
      resp.lsn = durable_ == nullptr ? 0 : durable_->next_lsn() - 1;
      // Flip running_ so EpollLoop exits after flushing this reply; the
      // full Stop() (drain + final checkpoint) runs on the waiting
      // thread via Wait()/~Server, not on the epoll thread itself.
      running_.store(false, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lk(stop_mu_);
        stop_cv_.notify_all();
      }
      break;
  }
  return Reply(FrameType::kAdminOk, frame.seq, Encode(resp));
}

bool Server::FlushOut(int fd, Connection* conn) {
  while (conn->outpos < conn->outbuf.size()) {
    ssize_t w = ::send(fd, conn->outbuf.data() + conn->outpos,
                       conn->outbuf.size() - conn->outpos, MSG_NOSIGNAL);
    if (w > 0) {
      conn->outpos += static_cast<size_t>(w);
      bytes_out_->Add(static_cast<uint64_t>(w));
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // peer gone
  }
  if (conn->outpos == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->outpos = 0;
  } else if (conn->outpos > kReadChunk) {
    conn->outbuf.erase(0, conn->outpos);
    conn->outpos = 0;
  }
  UpdateEpollInterest(fd, conn);
  return true;
}

void Server::UpdateEpollInterest(int fd, Connection* conn) {
  bool want_write = conn->outpos < conn->outbuf.size();
  bool want_read = !conn->paused;
  if (want_write == conn->want_write && want_read == conn->want_read) {
    return;
  }
  conn->want_write = want_write;
  conn->want_read = want_read;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    STRIP_LOG(WARN, "epoll_ctl(mod): %s", std::strerror(errno));
  }
}

Result<FeedImporter*> Server::FindImporter(const std::string& table) {
  auto it = importers_.find(table);
  if (it == importers_.end()) {
    return Status::NotFound(StrFormat(
        "'%s' is not a registered feed table", table.c_str()));
  }
  return it->second.get();
}

}  // namespace strip

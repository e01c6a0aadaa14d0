#ifndef STRIP_NET_SERVER_H_
#define STRIP_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "strip/durability/durable_log.h"
#include "strip/engine/database.h"
#include "strip/feed/feed.h"
#include "strip/net/protocol.h"
#include "strip/net/socket.h"
#include "strip/obs/watchdog.h"

namespace strip {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = kernel-assigned; read back via Server::port()
  int backlog = 128;
  int max_connections = 256;

  /// DDL script (tables, views, rules, functions registered by the caller
  /// beforehand) run at startup — schema is code, not data, so recovery
  /// re-runs it before the snapshot restores rows (DESIGN.md §2.6).
  std::string schema_sql;
  /// Runs after schema_sql, before recovery: register functions, generate
  /// view-maintenance rules — anything schema-like that needs C++ access.
  /// Recovery replay then fires these rules exactly like live traffic.
  std::function<Status(Database&)> bootstrap;
  /// Tables clients may FeedAppend into; an importer is created per table.
  std::vector<std::string> feed_tables;

  /// Durability directory (must exist). Empty disables the WAL + snapshot:
  /// the server becomes a pure cache, fast and forgetful.
  std::string data_dir;
  WalSyncPolicy sync = WalSyncPolicy::kManual;
  /// Auto-checkpoint once the WAL exceeds this many bytes (0 = only on
  /// explicit Admin kCheckpoint).
  uint64_t checkpoint_wal_bytes = 0;

  /// Engine options; mode is forced to kThreaded (a network server cannot
  /// run on a virtual clock).
  Database::Options engine;

  /// Admission control: the watchdog judges these SLOs every
  /// `watchdog_period_seconds` and the server sheds kLow-priority work
  /// while the verdict is kShed. All-zero SLOs or a non-positive period
  /// disable the watchdog (admission state stays kOk).
  WatchdogSlo slo;
  double watchdog_period_seconds = 0.25;
};

/// The strip_server core: one epoll thread owning every connection, a
/// housekeeping thread running the overload watchdog and auto-checkpoints,
/// and the engine's own worker pool executing rule transactions.
///
/// Threading model (DESIGN.md §2.6): all frame decode + dispatch happens on
/// the epoll thread under dispatch_mu_, so request handling is serialized
/// with checkpoints; the expensive work (rule cascades, view maintenance)
/// runs on the Database's ThreadedExecutor workers. FeedAppend is the
/// group-commit point — the batch's records are WAL-appended, one fdatasync
/// covers them all, and only then is the ack frame (carrying the LSN) sent.
class Server {
 public:
  /// Builds the engine, runs the schema script, recovers from data_dir,
  /// binds the listener, and starts serving. On return the server is
  /// accepting connections on port().
  static Result<std::unique_ptr<Server>> Start(ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Graceful stop: stop accepting, close connections, drain the engine,
  /// final checkpoint (when durable). Idempotent; also run by ~Server.
  void Stop();

  /// Blocks until Stop() is called (by Admin kShutdown or another thread).
  void Wait();

  uint16_t port() const { return port_; }
  Database& db() { return *db_; }
  DurableLog* durable() { return durable_.get(); }
  const DurableLog::RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }
  WatchdogState admission_state() const {
    return admission_state_.load(std::memory_order_relaxed);
  }
  bool stopped() const { return !running_.load(std::memory_order_relaxed); }

  /// Checkpoints (snapshot + WAL truncate) without draining the engine:
  /// requests are held off while the executor pauses, the tables and the
  /// delayed rule tasks are captured, and the snapshot is written; the
  /// rule tasks keep their delay windows. Safe to call from any thread.
  Result<uint64_t> Checkpoint();

 private:
  struct Connection {
    Socket sock;
    std::string inbuf;
    std::string outbuf;
    size_t outpos = 0;
    bool want_write = false;  // EPOLLOUT currently armed
    bool want_read = true;    // EPOLLIN currently armed
    bool closing = false;     // flush outbuf, then close
    /// Backpressure: set once unflushed output crosses the high water
    /// mark. While paused the server neither reads this socket nor
    /// decodes its buffered requests, so a client that pipelines big
    /// SELECTs without reading gets TCP backpressure instead of growing
    /// outbuf without bound. Cleared when a flush reaches the low water
    /// mark.
    bool paused = false;
    bool hello_done = false;
    SessionPriority priority = SessionPriority::kNormal;
    uint64_t session_id = 0;
    std::string client_name;
    uint64_t next_handle = 1;
    std::unordered_map<uint64_t, PreparedStatementPtr> stmts;
  };

  explicit Server(ServerOptions options);

  Status Init();
  void EpollLoop();
  void HousekeepingLoop();

  void AcceptPending();
  void HandleConnEvent(int fd, uint32_t events);
  void CloseConn(int fd);
  /// Parses every complete frame in conn->inbuf; false = close the
  /// connection (corrupt stream).
  bool DrainInbuf(Connection* conn);
  /// Appends the response frame(s) for one request to conn->outbuf.
  void HandleFrame(Connection* conn, const Frame& frame);
  Result<Frame> Dispatch(Connection* conn, const Frame& frame);
  Result<Frame> HandleHello(Connection* conn, const Frame& frame);
  Result<Frame> HandlePrepare(Connection* conn, const Frame& frame);
  Result<Frame> HandleExec(Connection* conn, const Frame& frame);
  Result<Frame> HandleFeedAppend(Connection* conn, const Frame& frame);
  Result<Frame> HandleAdmin(Connection* conn, const Frame& frame);
  /// Flushes as much of outbuf as the socket accepts; arms/disarms
  /// EPOLLOUT; false = connection is dead.
  bool FlushOut(int fd, Connection* conn);
  void UpdateEpollInterest(int fd, Connection* conn);
  void WakeEpoll();

  /// Checkpoint() minus the lock; the caller holds dispatch_mu_.
  Result<uint64_t> CheckpointLocked();

  Result<FeedImporter*> FindImporter(const std::string& table);
  /// True when the watchdog says shed and this session is sacrificial.
  bool ShouldShed(const Connection& conn) const;

  ServerOptions options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<DurableLog> durable_;
  DurableLog::RecoveryStats recovery_stats_;
  std::unordered_map<std::string, std::unique_ptr<FeedImporter>> importers_;

  Socket listener_;
  uint16_t port_ = 0;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  uint64_t next_session_id_ = 1;

  /// Serializes request dispatch (epoll thread) against checkpoints
  /// (housekeeping thread / Checkpoint() callers).
  std::mutex dispatch_mu_;

  std::unique_ptr<Watchdog> watchdog_;  // housekeeping thread only
  std::atomic<WatchdogState> admission_state_{WatchdogState::kOk};

  /// Set when the WAL and live tables can no longer be reconciled (a
  /// mid-batch apply failure after the sync, or a failed WAL rollback):
  /// every further FeedAppend is refused. Only a restart — whose recovery
  /// replays the WAL as the single source of truth — clears the state.
  std::atomic<bool> durable_failed_{false};

  std::atomic<bool> running_{false};
  std::thread epoll_thread_;
  std::thread housekeeping_thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::once_flag stop_once_;

  // Hot-path instruments, resolved once from db_->metrics().
  Counter* accepted_ = nullptr;
  Counter* closed_ = nullptr;
  Counter* requests_ = nullptr;
  Counter* errors_ = nullptr;
  Counter* corrupt_frames_ = nullptr;
  Counter* shed_sessions_ = nullptr;
  Counter* shed_requests_ = nullptr;
  Counter* feed_records_ = nullptr;
  Counter* checkpoints_ = nullptr;
  Counter* checkpoint_pending_tasks_ = nullptr;
  Histogram* checkpoint_us_ = nullptr;  // the section requests wait out
  Counter* backpressure_pauses_ = nullptr;
  Counter* wal_rollbacks_ = nullptr;
  Counter* bytes_in_ = nullptr;
  Counter* bytes_out_ = nullptr;
  Histogram* request_us_ = nullptr;
};

}  // namespace strip

#endif  // STRIP_NET_SERVER_H_

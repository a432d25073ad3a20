// NetServer: the epoll front-end of a cluster node. One loop thread owns
// every socket; request work runs on the shared thread pool; completed
// responses hop back to the loop via EventLoop::Post. Per-connection
// backpressure (reads pause at max_in_flight frames), idle timeouts, and
// a graceful drain (stop accepting, finish in-flight work, flush, then
// stop the loop) are all loop-thread bookkeeping.
//
// Request routing: frames carrying kFlagNoForward (peer-to-peer
// forwards), and every frame when no router is attached, go through
// CspdbService::Submit's admission-controlled async path. Client-facing
// frames on a clustered node go through ShardRouter::Handle on a pool
// task, which probes the local cache and consults the fingerprint's
// owner shard before computing.

#ifndef CSPDB_NET_SERVER_H_
#define CSPDB_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/thread_pool.h"
#include "net/event_loop.h"
#include "net/shard.h"
#include "net/wire.h"
#include "service/server.h"

namespace cspdb::net {

struct ServerOptions {
  /// "host:port"; port 0 binds an ephemeral port (see port()).
  std::string listen_address = "127.0.0.1:0";

  /// Requests a single connection may have outstanding before the server
  /// stops reading from it (resumes as responses flush).
  int max_in_flight_per_connection = 32;

  /// Connections idle (no frames, nothing in flight) this long are
  /// closed; <= 0 disables.
  int64_t idle_timeout_ms = 60000;

  /// Event-loop tick period (idle sweep / drain-deadline granularity).
  int64_t tick_interval_ms = 200;

  /// Shutdown() force-closes connections still busy after this long.
  int64_t drain_timeout_ms = 5000;

  /// Per-request timeout handed to the service; <= 0 = service default.
  int64_t request_timeout_ns = -1;

  /// Pool for request work; nullptr means ThreadPool::Global().
  exec::ThreadPool* pool = nullptr;
};

struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_closed = 0;
  int64_t frames_received = 0;
  int64_t frames_sent = 0;
  int64_t protocol_errors = 0;
  int64_t requests_dispatched = 0;
  int64_t pings = 0;
};

class NetServer {
 public:
  NetServer(service::CspdbService* service, ServerOptions options = {});

  /// Shuts down (gracefully) if still running.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Attaches the shard router for client-facing requests. Must be called
  /// before Start().
  void set_router(ShardRouter* router) { router_ = router; }

  /// Binds, listens, and spawns the loop thread. Returns false with
  /// *error set on bind/listen failure.
  bool Start(std::string* error);

  /// The bound port (resolves a ":0" listen address).
  int port() const { return port_; }

  /// "host:port" with the resolved port.
  const std::string& address() const { return address_; }

  /// Graceful drain: stops accepting, lets in-flight requests finish and
  /// flush (up to drain_timeout_ms), stops the loop, joins the thread.
  /// Idempotent.
  void Shutdown();

  ServerStats stats() const;

 private:
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    FrameAssembler in;
    std::vector<uint8_t> out;   // encoded frames awaiting the socket
    std::size_t out_offset = 0;  // prefix of `out` already written
    int in_flight = 0;           // dispatched, response not yet queued
    int64_t last_activity_ms = 0;
    bool closing = false;  // flush `out`, then close; reads are done
    bool paused = false;   // EPOLLIN off (backpressure)
  };

  // All private methods below run on the loop thread.
  void HandleAccept();
  void HandleConnEvent(uint64_t id, uint32_t events);
  void ReadInput(Conn* conn);
  void ProcessFrames(Conn* conn);
  void DispatchRequest(Conn* conn, Frame frame);
  void CompleteRequest(uint64_t conn_id, uint64_t request_id,
                       const service::Response& response);
  void SendFrame(Conn* conn, const Frame& frame);
  void FailConn(Conn* conn, uint64_t request_id, const std::string& message);
  void FlushWrites(Conn* conn);
  void UpdateInterest(Conn* conn);
  void CloseConn(uint64_t id);
  void Tick();
  void MaybeFinishDrain();

  service::CspdbService* service_;
  ShardRouter* router_ = nullptr;
  ServerOptions options_;
  exec::ThreadPool* pool_;

  EventLoop loop_;
  std::thread loop_thread_;
  bool started_ = false;
  bool shut_down_ = false;
  int listen_fd_ = -1;
  int port_ = 0;
  std::string address_;

  // Loop-thread state.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;
  bool draining_ = false;
  int64_t drain_deadline_ms_ = 0;

  // Request work in flight on pool threads: router-path tasks plus
  // service Submit done-callbacks. Shutdown() must outwait both — they
  // capture `this` and post to loop_, and the loop being stopped only
  // means their posted completions are never drained, not that the
  // tasks are done.
  util::Mutex pool_tasks_mu_;
  util::CondVar pool_tasks_cv_;
  int pool_tasks_ CSPDB_GUARDED_BY(pool_tasks_mu_) = 0;

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> connections_closed_{0};
  std::atomic<int64_t> frames_received_{0};
  std::atomic<int64_t> frames_sent_{0};
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> requests_dispatched_{0};
  std::atomic<int64_t> pings_{0};
};

}  // namespace cspdb::net

#endif  // CSPDB_NET_SERVER_H_

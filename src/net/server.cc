#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "net/client.h"
#include "obs/obs.h"
#include "util/check.h"

namespace cspdb::net {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Flow ids for "net.request" arrows. Process-wide, not per-server: the
// in-process two-node tests share one tracer, and a (name, id) flow key
// reused across servers would corrupt the trace.
std::atomic<uint64_t> g_net_flow_id{1};

}  // namespace

NetServer::NetServer(service::CspdbService* service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      pool_(options_.pool != nullptr ? options_.pool
                                     : &exec::ThreadPool::Global()) {}

NetServer::~NetServer() { Shutdown(); }

bool NetServer::Start(std::string* error) {
  CSPDB_CHECK_MSG(!started_, "NetServer started twice");
  // ParseHostPort rejects port 0 (not dialable), but 0 is a valid
  // *listen* port (bind an ephemeral one), so accept it here.
  std::string host;
  int port = 0;
  if (!ParseHostPort(options_.listen_address, &host, &port)) {
    const std::size_t colon = options_.listen_address.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        options_.listen_address.substr(colon + 1) != "0") {
      *error = "malformed listen address " + options_.listen_address;
      return false;
    }
    host = options_.listen_address.substr(0, colon);
    port = 0;
  }
  if (host == "localhost") host = "127.0.0.1";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "unresolvable listen host " + host;
    return false;
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = "bind " + options_.listen_address + ": " + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (listen(listen_fd_, 128) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);
  address_ = host + ":" + std::to_string(port_);

  loop_.AddFd(listen_fd_, EPOLLIN, [this](uint32_t) { HandleAccept(); });
  loop_thread_ = std::thread([this] {
    loop_.Run(options_.tick_interval_ms, [this] { Tick(); });
  });
  started_ = true;
  return true;
}

void NetServer::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  loop_.Post([this] {
    draining_ = true;
    drain_deadline_ms_ = NowMs() + options_.drain_timeout_ms;
    // Whatever arrived before the drain began is still served: take the
    // connections already in the accept backlog and read the bytes
    // already buffered in each socket before judging which connections
    // are idle. Closing a socket with unread input resets it instead of
    // answering the request it carries.
    if (listen_fd_ >= 0) {
      HandleAccept();
      loop_.RemoveFd(listen_fd_);
      close(listen_fd_);
      listen_fd_ = -1;
    }
    std::vector<uint64_t> ids;
    for (const auto& [id, conn] : conns_) ids.push_back(id);
    for (uint64_t id : ids) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      if (!conn->closing && !conn->paused) ReadInput(conn);
    }
    // Close everything already quiescent; busy connections close as
    // their responses complete and flush (Tick enforces the deadline).
    std::vector<uint64_t> idle;
    for (const auto& [id, conn] : conns_) {
      if (conn->in_flight == 0 && conn->out_offset == conn->out.size()) {
        idle.push_back(id);
      }
    }
    for (uint64_t id : idle) CloseConn(id);
    MaybeFinishDrain();
  });
  loop_thread_.join();
  // The loop is gone, but request work may still be running on pool
  // threads — router-path tasks and service Submit callbacks alike
  // (their posted completions are simply never drained). Both capture
  // `this`, so destruction must wait for them.
  util::MutexLock lock(pool_tasks_mu_);
  while (pool_tasks_ > 0) pool_tasks_cv_.Wait(pool_tasks_mu_);
}

void NetServer::HandleAccept() {
  for (;;) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      CSPDB_COUNT("net.server.accept_errors");
      return;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity_ms = NowMs();
    const uint64_t id = conn->id;
    conns_.emplace(id, std::move(conn));
    loop_.AddFd(fd, EPOLLIN,
                [this, id](uint32_t events) { HandleConnEvent(id, events); });
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    CSPDB_COUNT("net.server.accepts");
  }
}

void NetServer::HandleConnEvent(uint64_t id, uint32_t events) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConn(id);
    return;
  }
  if (events & EPOLLOUT) {
    FlushWrites(conn);
    // FlushWrites may close; re-check.
    if (conns_.find(id) == conns_.end()) return;
  }
  if ((events & EPOLLIN) && !conn->closing) ReadInput(conn);
}

// Drains the socket's buffered bytes into the frame assembler and
// processes the complete frames. May close the connection.
void NetServer::ReadInput(Conn* conn) {
  uint8_t buf[16384];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->last_activity_ms = NowMs();
      conn->in.Feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(conn->id);  // peer closed or hard error
    return;
  }
  ProcessFrames(conn);
}

void NetServer::ProcessFrames(Conn* conn) {
  const uint64_t id = conn->id;
  while (!conn->closing &&
         conn->in_flight < options_.max_in_flight_per_connection) {
    Frame frame;
    switch (conn->in.Next(&frame)) {
      case FrameAssembler::Status::kNeedMore:
        return;
      case FrameAssembler::Status::kProtocolError:
        FailConn(conn, 0, conn->in.error());
        return;
      case FrameAssembler::Status::kFrame:
        break;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    CSPDB_COUNT("net.server.frames_in");
    switch (frame.type) {
      case FrameType::kPing: {
        pings_.fetch_add(1, std::memory_order_relaxed);
        Frame pong;
        pong.type = FrameType::kPong;
        pong.request_id = frame.request_id;
        SendFrame(conn, pong);
        break;
      }
      case FrameType::kRequest:
        DispatchRequest(conn, std::move(frame));
        break;
      default:
        // Clients send requests and pings; anything else means the
        // stream is confused.
        FailConn(conn, frame.request_id, "unexpected frame type");
        return;
    }
    // A pong sent while draining, or a bad-request error, may have
    // closed the connection and freed `conn`.
    if (conns_.find(id) == conns_.end()) return;
  }
  // Out of the loop with frames possibly still buffered: at the
  // in-flight bound. Stop reading until completions make room.
  if (!conn->closing &&
      conn->in_flight >= options_.max_in_flight_per_connection &&
      !conn->paused) {
    conn->paused = true;
    CSPDB_COUNT("net.server.backpressure_pauses");
    UpdateInterest(conn);
  }
}

void NetServer::DispatchRequest(Conn* conn, Frame frame) {
  std::string decode_error;
  std::optional<service::ServiceRequest> request = DecodeRequestPayload(
      frame.payload.data(), frame.payload.size(), &decode_error);
  if (!request.has_value()) {
    FailConn(conn, frame.request_id, "bad request: " + decode_error);
    return;
  }
  ++conn->in_flight;
  requests_dispatched_.fetch_add(1, std::memory_order_relaxed);
  CSPDB_COUNT("net.server.requests");
  const uint64_t conn_id = conn->id;
  const uint64_t wire_id = frame.request_id;

  if (router_ != nullptr && (frame.flags & kFlagNoForward) == 0) {
    // Client-facing request on a clustered node: the router probes the
    // local cache and may consult the owner shard — blocking work, so it
    // runs as a pool task. The flow arrow ties the dispatch here to the
    // pool-thread handling in the trace.
    const uint64_t flow_id =
        g_net_flow_id.fetch_add(1, std::memory_order_relaxed);
    {
      CSPDB_TRACE_SPAN("net.dispatch");
      CSPDB_TRACE_FLOW_BEGIN("net.request", flow_id);
      {
        util::MutexLock lock(pool_tasks_mu_);
        ++pool_tasks_;
      }
      pool_->Submit([this, conn_id, wire_id, flow_id,
                     request = std::move(*request)]() mutable {
        {
          CSPDB_TRACE_SPAN("net.handle");
          CSPDB_TRACE_FLOW_END("net.request", flow_id);
          service::Response response = router_->Handle(request);
          loop_.Post([this, conn_id, wire_id,
                      response = std::move(response)] {
            CompleteRequest(conn_id, wire_id, response);
          });
        }
        util::MutexLock lock(pool_tasks_mu_);
        if (--pool_tasks_ == 0) pool_tasks_cv_.NotifyAll();
      });
    }
    return;
  }

  // Peer forward (kFlagNoForward) or an unclustered node: the service's
  // admission-controlled async path. The callback runs on a pool thread
  // (inline here on admission rejection); the response hops back to the
  // loop thread to be written. Counted in pool_tasks_ — Shutdown() must
  // not let ~NetServer destroy the loop while a callback is still
  // posting to it.
  {
    util::MutexLock lock(pool_tasks_mu_);
    ++pool_tasks_;
  }
  service_->Submit(std::move(*request), options_.request_timeout_ns,
                   [this, conn_id, wire_id](service::Response response) {
                     loop_.Post([this, conn_id, wire_id,
                                 response = std::move(response)] {
                       CompleteRequest(conn_id, wire_id, response);
                     });
                     util::MutexLock lock(pool_tasks_mu_);
                     if (--pool_tasks_ == 0) pool_tasks_cv_.NotifyAll();
                   });
}

void NetServer::CompleteRequest(uint64_t conn_id, uint64_t wire_id,
                                const service::Response& response) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // connection died while we computed
  Conn* conn = it->second.get();
  --conn->in_flight;
  conn->last_activity_ms = NowMs();
  Frame frame;
  frame.type = FrameType::kResponse;
  frame.request_id = wire_id;
  EncodeResponsePayload(response, &frame.payload);
  SendFrame(conn, frame);
  if (conns_.find(conn_id) == conns_.end()) return;  // send failed hard
  if (conn->paused &&
      conn->in_flight < options_.max_in_flight_per_connection &&
      !conn->closing) {
    conn->paused = false;
    UpdateInterest(conn);
    ProcessFrames(conn);
  }
}

void NetServer::SendFrame(Conn* conn, const Frame& frame) {
  AppendFrame(frame, &conn->out);
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  CSPDB_COUNT("net.server.frames_out");
  FlushWrites(conn);
}

void NetServer::FailConn(Conn* conn, uint64_t wire_id,
                         const std::string& message) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  CSPDB_COUNT("net.server.protocol_errors");
  Frame frame;
  frame.type = FrameType::kError;
  frame.request_id = wire_id;
  EncodeErrorPayload(message, &frame.payload);
  conn->closing = true;  // flush the error, then close; no more reads
  SendFrame(conn, frame);
}

void NetServer::FlushWrites(Conn* conn) {
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n =
        send(conn->fd, conn->out.data() + conn->out_offset,
             conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<std::size_t>(n);
      conn->last_activity_ms = NowMs();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateInterest(conn);  // arm EPOLLOUT for the rest
      return;
    }
    CloseConn(conn->id);
    return;
  }
  conn->out.clear();
  conn->out_offset = 0;
  if (conn->closing || (draining_ && conn->in_flight == 0)) {
    CloseConn(conn->id);
    return;
  }
  UpdateInterest(conn);
}

void NetServer::UpdateInterest(Conn* conn) {
  uint32_t events = 0;
  if (!conn->closing && !conn->paused) events |= EPOLLIN;
  if (conn->out_offset < conn->out.size()) events |= EPOLLOUT;
  loop_.UpdateFd(conn->fd, events);
}

void NetServer::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  loop_.RemoveFd(it->second->fd);
  close(it->second->fd);
  conns_.erase(it);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  CSPDB_COUNT("net.server.closes");
  MaybeFinishDrain();
}

void NetServer::Tick() {
  const int64_t now = NowMs();
  std::vector<uint64_t> to_close;
  for (const auto& [id, conn] : conns_) {
    if (draining_ && now >= drain_deadline_ms_) {
      to_close.push_back(id);  // drain deadline: force-close stragglers
    } else if (options_.idle_timeout_ms > 0 && conn->in_flight == 0 &&
               conn->out_offset == conn->out.size() &&
               now - conn->last_activity_ms > options_.idle_timeout_ms) {
      to_close.push_back(id);
      CSPDB_COUNT("net.server.idle_closes");
    }
  }
  for (uint64_t id : to_close) CloseConn(id);
  MaybeFinishDrain();
}

void NetServer::MaybeFinishDrain() {
  if (draining_ && conns_.empty()) loop_.Stop();
}

ServerStats NetServer::stats() const {
  ServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.requests_dispatched =
      requests_dispatched_.load(std::memory_order_relaxed);
  s.pings = pings_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cspdb::net

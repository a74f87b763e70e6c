#include "net/tcp/tcp_transport.h"

#include <algorithm>
#include <chrono>

namespace sigma::net {

TcpCounters::TcpCounters(obs::Registry& registry)
    : net(registry),
      connections_accepted(registry.counter("tcp.connections_accepted")),
      connections_established(
          registry.counter("tcp.connections_established")),
      connect_failures(registry.counter("tcp.connect_failures")),
      connections_closed(registry.counter("tcp.connections_closed")),
      connections_lost(registry.counter("tcp.connections_lost")),
      protocol_errors(registry.counter("tcp.protocol_errors")),
      frames_received(registry.counter("tcp.frames_received")),
      bytes_received(registry.counter("tcp.bytes_received")),
      bounced_requests(registry.counter("tcp.bounced_requests")),
      wakeups(registry.counter("tcp.wakeups")),
      route_conflicts(registry.counter("tcp.route_conflicts")),
      route_takeovers(registry.counter("tcp.route_takeovers")),
      route_expired(registry.counter("tcp.route_expired")),
      connects(registry.counter("tcp.connects")),
      reconnects(registry.counter("tcp.reconnects")),
      handshake_failures(registry.counter("tcp.handshake_failures")),
      backpressure_stalls(registry.counter("tcp.backpressure_stalls")) {}

TcpTransportStats TcpCounters::read() const {
  TcpTransportStats s;
  s.connections_accepted = connections_accepted.value();
  s.connections_established = connections_established.value();
  s.connect_failures = connect_failures.value();
  s.connections_closed = connections_closed.value();
  s.connections_lost = connections_lost.value();
  s.protocol_errors = protocol_errors.value();
  s.frames_received = frames_received.value();
  s.bytes_received = bytes_received.value();
  s.bounced_requests = bounced_requests.value();
  s.wakeups = wakeups.value();
  s.route_conflicts = route_conflicts.value();
  s.route_takeovers = route_takeovers.value();
  s.route_expired = route_expired.value();
  return s;
}

TcpTransport::TcpTransport(TcpTransportConfig config)
    : config_(std::move(config)),
      next_id_(config_.endpoint_base),
      metrics_(config_.metrics),
      counters_(*metrics_) {
  if (config_.metrics) {
    for (std::uint8_t op = 0; op <= kMaxMessageType; ++op) {
      rpc_us_[op] = &config_.metrics->histogram(
          std::string("tcp.rpc_us.") +
          to_string(static_cast<MessageType>(op)));
    }
    m_write_queue_bytes_ = &config_.metrics->gauge("tcp.write_queue_bytes");
  }
  if (config_.listen) {
    listen_fd_ = tcp_listen(*config_.listen);
    listen_port_ = bound_port(listen_fd_.get());
  }
  reactor_.start();
}

TcpTransport::~TcpTransport() {
  stopping_.store(true, std::memory_order_relaxed);
  reactor_.stop();
  // Connections, the listener and the wake fd close via RAII. No
  // deliveries can be in flight: only the (joined) loop thread delivered.
}

EndpointId TcpTransport::register_endpoint(Handler handler) {
  MutexLock lock(ep_mu_);
  const EndpointId id = next_id_++;
  auto ep = std::make_shared<Endpoint>();
  ep->handler = std::move(handler);
  endpoints_.emplace(id, std::move(ep));
  return id;
}

void TcpTransport::unregister_endpoint(EndpointId id) {
  MutexLock lock(ep_mu_);
  auto it = endpoints_.find(id);
  if (it == endpoints_.end()) return;
  auto ep = it->second;
  endpoints_.erase(it);
  // Wait out deliveries already dispatched to this endpoint so the caller
  // may tear down whatever the handler references.
  while (ep->active_deliveries != 0) idle_cv_.wait(ep_mu_);
}

bool TcpTransport::deliver_local(Message&& m) {
  std::shared_ptr<Endpoint> ep;
  {
    MutexLock lock(ep_mu_);
    auto it = endpoints_.find(m.dst);
    if (it == endpoints_.end()) return false;
    ep = it->second;
    ++ep->active_deliveries;
  }
  ep->handler(std::move(m));
  {
    MutexLock lock(ep_mu_);
    --ep->active_deliveries;
    // Notify under ep_mu_: unregister_endpoint's caller may destroy this
    // transport the instant its wait predicate holds, so the notify must
    // complete before that predicate can be re-checked.
    idle_cv_.notify_all();
  }
  return true;
}

void TcpTransport::bounce_request(const Message& header,
                                  const std::string& text) {
  counters_.bounced_requests.inc();
  counters_.net.errors.inc();
  Message bounce = Message::error_to(header, "transport: " + text);
  (void)deliver_local(std::move(bounce));  // requester gone: silent drop
}

TcpTransport::RouteClaim TcpTransport::learn_route(EndpointId src,
                                                   const ConnPtr& conn) {
  if (src == 0) return RouteClaim::kOk;
  {
    MutexLock lock(ep_mu_);
    // A local endpoint id never becomes a remote route.
    if (endpoints_.count(src) > 0) return RouteClaim::kOk;
  }
  // The first registration holds while its connection stays active: a
  // *different* connection claiming an already-routed endpoint is a
  // collision (two peers sharing an endpoint id), and silently
  // re-pointing the route would leak one peer's responses to the other —
  // the collider is refused deterministically instead. Once the owning
  // connection has been silent past route_stale_ms (a drop this side
  // never observed — close_conn erases routes on the drops it does
  // observe), the new claimant takes the route over, so a re-dialing
  // peer is locked out for at most the stale window. Freshness is
  // TcpConn::last_frame_us, written by the loop just before it claims.
  MutexLock lock(route_mu_);
  const auto [it, inserted] = routes_.try_emplace(src, conn);
  if (inserted || it->second == conn) return RouteClaim::kOk;
  const std::int64_t stale_cutoff_us =
      conn->last_frame_us -
      static_cast<std::int64_t>(config_.route_stale_ms) * 1000;
  if (it->second->last_frame_us <= stale_cutoff_us) {
    counters_.route_takeovers.inc();
    it->second = conn;
    return RouteClaim::kTakeover;
  }
  counters_.route_conflicts.inc();
  return RouteClaim::kConflict;
}

void TcpTransport::forget_routes(const ConnPtr& conn) {
  MutexLock lock(route_mu_);
  for (auto it = routes_.begin(); it != routes_.end();) {
    it = (it->second == conn) ? routes_.erase(it) : std::next(it);
  }
}

void TcpTransport::sweep_stale_routes() {
  const std::int64_t now_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  MutexLock lock(route_mu_);
  if (now_us < next_route_sweep_us_) return;
  // Scan at a quarter of the stale window: reclamation lags an idle
  // departure by at most ~1.25x route_stale_ms without taking route_mu_
  // on every loop iteration. (Expiring a route is cheap to get wrong
  // in the safe direction — a live peer's next frame just re-learns it.)
  next_route_sweep_us_ =
      now_us +
      std::max<std::int64_t>(
          static_cast<std::int64_t>(config_.route_stale_ms) * 1000 / 4, 1000);
  const std::int64_t cutoff_us =
      now_us - static_cast<std::int64_t>(config_.route_stale_ms) * 1000;
  for (auto it = routes_.begin(); it != routes_.end();) {
    if (it->second->last_frame_us <= cutoff_us) {
      counters_.route_expired.inc();
      it = routes_.erase(it);
    } else {
      ++it;
    }
  }
}

bool TcpTransport::refuse_oversized(const Message& header,
                                    std::size_t body_size) {
  if (body_size <= config_.max_body_bytes) return false;
  counters_.net.dropped.inc();
  if (header.kind == MessageKind::kRequest) {
    bounce_request(header, "message body " + std::to_string(body_size) +
                               " exceeds limit " +
                               std::to_string(config_.max_body_bytes));
  }
  return true;
}

void TcpTransport::send(Message&& m) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  const Message header = header_of(m);
  const bool is_request = m.kind == MessageKind::kRequest;
  const std::size_t body_size = m.body.size();

  bool local = false;
  bool track = false;
  {
    MutexLock lock(ep_mu_);
    local = endpoints_.count(m.dst) > 0;
    // Track our own requests until their response arrives, so a dead
    // connection fails them instead of leaving the caller to time out.
    track = is_request && endpoints_.count(m.src) > 0;
  }

  if (local) {
    counters_.net.count_sent(m.kind, m.wire_size());
    if (!deliver_local(std::move(m))) {
      counters_.net.dropped.inc();
      if (is_request) bounce_request(header, "endpoint unregistered");
    }
    return;
  }

  // Learned return route first (how a daemon answers client endpoints).
  ConnPtr route;
  {
    MutexLock lock(route_mu_);
    auto it = routes_.find(m.dst);
    if (it != routes_.end()) route = it->second;
  }
  if (route) {
    if (refuse_oversized(header, body_size)) return;
    if (reactor_.enqueue(route, m, header, track)) {
      reactor_.wake();
      if (!Reactor::on_reactor_thread()) reactor_.backpressure_wait(route);
      return;
    }
    // The routed connection died under us (close_conn erases the route
    // momentarily): fall back to the static peer map.
  }

  const auto pit = config_.remote_endpoints.find(m.dst);
  if (pit == config_.remote_endpoints.end()) {
    counters_.net.dropped.inc();
    if (is_request) {
      bounce_request(header,
                     "no route to endpoint " + std::to_string(header.dst));
    }
    return;
  }
  if (refuse_oversized(header, body_size)) return;

  const std::pair<std::string, std::uint16_t> key{pit->second.host,
                                                  pit->second.port};
  // Resolve a first-contact peer's address before queueing: a slow DNS
  // lookup then costs only this producer, never a reactor or other
  // senders. (remote_endpoints is immutable after construction.)
  TcpAddress dial = pit->second;
  if (!reactor_.outbound_exists(key)) {
    try {
      dial = resolve_numeric(pit->second);
    } catch (const SocketError& e) {
      counters_.net.dropped.inc();
      if (is_request) {
        bounce_request(header, std::string("resolve failed: ") + e.what());
      }
      return;
    }
  }
  const ConnPtr conn =
      reactor_.enqueue_outbound(key, dial, m, header, track);
  if (!conn) return;  // transport stopping
  reactor_.wake();

  // Backpressure: block producers (never the loop thread) while this
  // connection's queue is past the high watermark. A dying connection
  // clears its queue; a peer that stays wedged past the stall timeout is
  // failed (the loop owns the fd), so this always unblocks.
  if (!Reactor::on_reactor_thread()) reactor_.backpressure_wait(conn);
}

NetStats TcpTransport::stats() const { return counters_.net.read(); }

}  // namespace sigma::net

// TCP implementation of net::Transport: real sockets between OS
// processes, same Message semantics as the loopback.
//
// One event loop carries everything. The transport owns a single Reactor
// (see net/tcp/reactor.h) — one thread, one epoll instance, one eventfd
// wakeup — that holds the listener and every inbound and outbound
// connection:
//
//   send() ── reactor ── epoll ── listener + conns {a, b, c, ...}
//
// This class is the layer around the loop: local endpoint registry,
// static peer map and learned return routes. send() resolves the
// destination (local endpoint, learned route, or peer map), then queues
// on the reactor; the reactor frames, writev()s and dispatches, calling
// back into this class for local delivery, bounces and route claims.
// Every delivery handler hands work off (a service to its pool, an
// RpcEndpoint to a future), so one loop serving both directions of many
// connections never waits on itself.
//
// Per-peer connection state machine (outbound connections are dialed
// lazily, on the first send toward that peer's address):
//
//   kIdle -> kConnecting -> kHello -> kEstablished
//     ^          |  connect refused/timed out: retry with exponential
//     |          v  backoff up to connect_attempts, then fail
//     +------ kBackoff
//
// Failure semantics mirror the loopback's connection-refusal bounce: when
// a request cannot be delivered — no route, connect attempts exhausted,
// or the connection drops while the request is queued or awaiting its
// response — the transport synthesizes an error response to the local
// requester, so an RpcEndpoint call fails fast instead of burning its
// full timeout. (Each connection tracks locally-originated requests by
// correlation id until their response arrives.)
//
// Addressing: local endpoints get sequential ids from endpoint_base —
// node daemons use low well-known ids (kServiceEndpointBase + i), clients
// high ones (kClientEndpointBase) so the two ranges never collide. Remote
// endpoints are resolved through the static peer map (endpoint id ->
// host:port, for clients dialing node services) or through learned routes
// (a server answers a client endpoint over the connection that carried
// its request). Both the endpoint table and the route directory live
// behind locks RANKED BELOW the loop mutex (kTransportEndpoints,
// kTransportRoutes < kTransport), so the loop consults them only with its
// own mutex released.
//
// Backpressure: each connection's write queue is capped; send() from a
// thread other than the loop blocks once the queue passes the high watermark and
// resumes below the low watermark — a slow or stalled peer throttles its
// producers instead of ballooning memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/tcp/reactor.h"
#include "net/tcp/socket.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace sigma::net {

struct TcpTransportConfig {
  /// Bind + listen when set (node daemons). Client transports leave it
  /// empty and only dial out.
  std::optional<TcpAddress> listen;

  /// Static peer map: which remote endpoint ids live at which address.
  /// Multiple endpoints may share one address (a daemon hosting several
  /// node services); they share one connection.
  std::unordered_map<EndpointId, TcpAddress> remote_endpoints;

  /// First id handed out by register_endpoint().
  EndpointId endpoint_base = kClientEndpointBase;

  /// Largest acceptable frame body. Frames above this are a protocol
  /// error (connection dropped) — bounds memory against corrupt peers.
  std::size_t max_body_bytes = 64ull << 20;

  /// Write-queue backpressure thresholds, per connection.
  std::size_t write_high_watermark = 16ull << 20;
  std::size_t write_low_watermark = 4ull << 20;

  /// How long a producer may stay backpressured on one connection before
  /// the peer is declared stalled and the connection is failed (queued
  /// requests bounce as errors). Bounds every send() — a SIGSTOPped or
  /// wedged peer can slow this transport, never hang it (or its
  /// teardown).
  std::uint32_t write_stall_timeout_ms = 10000;

  /// Connect retry policy: attempts, base backoff (doubled per retry),
  /// backoff cap.
  std::uint32_t connect_attempts = 4;
  std::uint32_t connect_backoff_ms = 25;
  std::uint32_t connect_backoff_max_ms = 1000;

  /// How long an unanswered request stays tracked for bounce-on-
  /// connection-loss. Callers abandon calls at their own RPC timeout
  /// without telling the transport, so entries older than this are swept
  /// (set it above the longest RPC timeout in use; sweeping one early
  /// only costs the fast-fail bounce, the RPC timeout still fires).
  std::uint32_t request_track_ttl_ms = 120000;

  /// Learned-return-route takeover threshold: a route whose owning
  /// connection has received nothing for this long is considered stale
  /// and may be claimed by a different connection presenting the same
  /// endpoint id (a peer re-dialing after an asymmetric connection drop
  /// the server never saw). While the owner is fresher than this, a
  /// different claimant is a collision and is refused.
  std::uint32_t route_stale_ms = 15000;

  /// Registry for the transport's counters (must outlive the transport):
  /// `net.*` and the `tcp.*` connection / frame / route / stall counters.
  /// Null = the transport keeps them in a registry it owns. Given a
  /// registry, it also records the opt-in instruments: per-op RPC
  /// latency histograms (send to response) and a write-queue depth gauge
  /// with high-water tracking.
  obs::Registry* metrics = nullptr;
};

/// TCP-specific counters on top of NetStats.
struct TcpTransportStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_established = 0;
  std::uint64_t connect_failures = 0;
  /// Established connections the peer ended in order (end of stream)
  /// with no request awaiting a response and no frame queued.
  std::uint64_t connections_closed = 0;
  /// Every other close of an established connection: resets, read or
  /// write errors, protocol errors, stalls, or an end of stream that cut
  /// outstanding work short.
  std::uint64_t connections_lost = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bounced_requests = 0;
  /// Event-loop wakeup pokes (eventfd writes): producers signalling the
  /// loop that new work is queued. A wakeup is cheap but not free.
  std::uint64_t wakeups = 0;
  /// Messages refused because their source endpoint's return route is
  /// already owned by a different, recently-active connection — two
  /// peers sharing an endpoint id (e.g. clients started with the same
  /// endpoint base).
  std::uint64_t route_conflicts = 0;
  /// Stale learned routes re-pointed to a new connection (peer re-dialed
  /// after a connection drop this side never observed).
  std::uint64_t route_takeovers = 0;
  /// Learned routes reclaimed by the periodic sweep: the owning
  /// connection sat silent past route_stale_ms and no collider ever
  /// dialed in to take the route over (a departed client). Without the
  /// sweep these would linger forever and count against lease reuse.
  std::uint64_t route_expired = 0;
};

/// The transport's counters (registry names `net.*` and `tcp.<field>`).
struct TcpCounters {
  explicit TcpCounters(obs::Registry& registry);

  TcpTransportStats read() const;

  NetCounters net;
  obs::Counter& connections_accepted;
  obs::Counter& connections_established;
  obs::Counter& connect_failures;
  obs::Counter& connections_closed;
  obs::Counter& connections_lost;
  obs::Counter& protocol_errors;
  obs::Counter& frames_received;
  obs::Counter& bytes_received;
  obs::Counter& bounced_requests;
  obs::Counter& wakeups;
  obs::Counter& route_conflicts;
  obs::Counter& route_takeovers;
  obs::Counter& route_expired;
  obs::Counter& connects;
  obs::Counter& reconnects;
  obs::Counter& handshake_failures;
  obs::Counter& backpressure_stalls;
};

class TcpTransport final : public Transport {
 public:
  /// Binds the listener (when configured) and starts the reactor.
  /// Throws SocketError if the listen address cannot be bound.
  explicit TcpTransport(TcpTransportConfig config);

  /// Stops the reactor, closes every connection, unblocks senders.
  ~TcpTransport() override;

  EndpointId register_endpoint(Handler handler) override;
  void unregister_endpoint(EndpointId id) override;
  void send(Message&& m) override;
  NetStats stats() const override;

  TcpTransportStats tcp_stats() const { return counters_.read(); }

  /// Actual listening port (resolves port 0); 0 when not listening.
  std::uint16_t listen_port() const { return listen_port_; }

 private:
  // The loop delivers, bounces and claims routes through the private
  // methods below, and records into counters_ and the instruments.
  friend class Reactor;

  enum class RouteClaim { kOk, kConflict, kTakeover };

  struct Endpoint {
    Handler handler;
    int active_deliveries = 0;
  };

  /// Deliver to a local endpoint handler; false when the endpoint is not
  /// registered.
  bool deliver_local(Message&& m);

  /// Synthesize the error response for an undeliverable request and hand
  /// it to the local requester (silently drops if the requester is gone).
  void bounce_request(const Message& header, const std::string& text);

  /// Fail a message locally when its body exceeds max_body_bytes (true =
  /// refused): shipping it would poison the connection when the peer
  /// rejects the frame. (Both sides of a deployment share one limit.)
  bool refuse_oversized(const Message& header, std::size_t body_size);

  /// Learn (or contest) the return route for remote endpoint `src` over
  /// `conn` (loop thread, loop mutex released). kConflict = the endpoint
  /// is owned by a different, fresh connection (refuse the message);
  /// kTakeover = a stale owner was displaced.
  RouteClaim learn_route(EndpointId src, const ConnPtr& conn);

  /// Drop every learned route pointing at `conn` (connection closed).
  void forget_routes(const ConnPtr& conn);

  /// Reclaim learned routes whose owning connection has been silent past
  /// the stale window (a departed peer whose drop this side never
  /// observed, and no collider ever dialed in to take the route over).
  /// The loop calls this once per iteration; the scan itself is
  /// throttled.
  void sweep_stale_routes();

  TcpTransportConfig config_;

  /// Set first in the destructor; producers observe it without any lock
  /// (send() becomes a no-op while the reactor winds down).
  std::atomic<bool> stopping_{false};

  // ---- Endpoint table (rank kTransportEndpoints, below the loop) --------
  Mutex ep_mu_{LockRank::kTransportEndpoints};
  CondVar idle_cv_;  // unregister_endpoint waits here
  std::unordered_map<EndpointId, std::shared_ptr<Endpoint>> endpoints_
      SIGMA_GUARDED_BY(ep_mu_);
  EndpointId next_id_ SIGMA_GUARDED_BY(ep_mu_);

  // ---- Learned routes (rank kTransportRoutes, below the loop) -----------
  /// Remote endpoint id -> connection that carried its last message (how
  /// a daemon answers client endpoints). A response produced by any
  /// thread finds its connection here.
  Mutex route_mu_{LockRank::kTransportRoutes};
  std::unordered_map<EndpointId, ConnPtr> routes_
      SIGMA_GUARDED_BY(route_mu_);
  /// Next time sweep_stale_routes() actually scans (it is called every
  /// loop iteration; the scan runs at a quarter of the stale window).
  std::int64_t next_route_sweep_us_ SIGMA_GUARDED_BY(route_mu_) = 0;

  obs::RegistryHandle metrics_;
  TcpCounters counters_;
  /// Opt-in instruments (null without config_.metrics). RPC latency is
  /// measured send() -> response dispatch, per op, against the tracking
  /// entries in TcpConn::awaiting_response.
  obs::Histogram* rpc_us_[kMaxMessageType + 1] = {};
  obs::Gauge* m_write_queue_bytes_ = nullptr;

  SocketFd listen_fd_;  // the loop polls it when valid
  std::uint16_t listen_port_ = 0;

  /// Built after everything it reads; started once the listener is bound
  /// and stopped first in the destructor.
  Reactor reactor_{*this};
};

}  // namespace sigma::net

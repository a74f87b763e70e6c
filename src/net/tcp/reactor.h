// The TCP transport's event loop: one thread owning one epoll instance,
// one eventfd wakeup, the listener and every inbound and outbound
// connection of its TcpTransport. Both descriptors are created at
// construction; if either cannot be, the constructor throws SocketError (no
// fallback). The loop runs the frame, handshake and backpressure state
// machines and calls its transport directly for local delivery, request
// bounces and the learned-route directory.
//
// Locking: the reactor has exactly one mutex (LockRank::kTransport),
// guarding the producer/loop handoff for its connections. The transport's
// endpoint table and learned-route directory sit behind lower-ranked locks
// (kTransportEndpoints, kTransportRoutes) and are only consulted with the
// loop mutex released.
//
// Write path: frames are never coalesced into a per-send allocation. A
// queued frame is an OutFrame — the wire header encoded into an inline
// array plus the message body moved verbatim — and the loop flushes the
// queue with sendmsg()/writev(), batching up to kMaxWriteIovecs iovecs
// across queued frames per syscall. Sending a frame therefore costs zero
// heap allocations and zero payload copies.
#pragma once

#include <sys/uio.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/tcp/frame.h"
#include "net/tcp/socket.h"
#include "net/transport.h"

namespace sigma::net {

struct TcpTransportConfig;
struct TcpCounters;
class TcpTransport;

/// Header-only copy of a message (for bounce bookkeeping).
Message header_of(const Message& m);

/// One frame queued for the wire: the encoded header (fixed header plus
/// optional trace block) lives in an inline array, the body is the
/// Message's buffer moved untouched. writev() sends both without ever
/// gluing them into one allocation.
struct OutFrame {
  std::array<std::uint8_t, kMaxFrameHeaderBytes> header;
  std::uint8_t header_len = 0;
  Buffer body;

  std::size_t wire_size() const { return header_len + body.size(); }
};

/// Build an OutFrame from `m`, moving the body out of the message.
OutFrame make_out_frame(Message&& m);

/// Iovec batch bound per sendmsg() call (well under IOV_MAX everywhere).
inline constexpr std::size_t kMaxWriteIovecs = 64;

/// Fill `iov` (capacity `max_iov`) from the queued frames, starting
/// `offset` bytes into the front frame's wire image. Zero-length entries
/// are never emitted. Returns the number of iovecs filled.
std::size_t build_frame_iovecs(const std::deque<OutFrame>& queue,
                               std::size_t offset, struct iovec* iov,
                               std::size_t max_iov);

/// Account `sent` bytes against the queue: pops fully-written frames and
/// leaves `offset` pointing into the (possibly new) front frame.
void consume_sent(std::deque<OutFrame>& queue, std::size_t& offset,
                  std::size_t sent);

/// One TCP connection (inbound or outbound) and its state machine, owned
/// by the transport's Reactor.
///
/// Ownership of the fields is split two ways (annotations cannot express
/// a struct guarded by its owner's mutex, so the split is documented here
/// and enforced by the TSan lane):
///   * loop-thread-only: fd, address, hello_*, decoder, attempts,
///     retry_at, last_frame_us, was_established, epoll_events — touched
///     exclusively by the loop once the conn is registered;
///   * guarded by the reactor's mu_: state, outbox, out_offset,
///     outbox_bytes, awaiting_response, stalled, dead — the producer/loop
///     handoff.
struct TcpConn {
  enum class State { kIdle, kBackoff, kConnecting, kHello, kEstablished };

  explicit TcpConn(std::size_t max_body) : decoder(max_body) {}

  State state = State::kIdle;
  SocketFd fd;
  bool outbound = false;
  TcpAddress address;  // dial target (outbound only)

  // Handshake progress.
  Buffer hello_out;            // our HELLO, written before any frame
  std::size_t hello_sent = 0;  // bytes of hello_out written
  Buffer hello_in;             // peer HELLO accumulating

  FrameDecoder decoder;

  // Write queue: frames awaiting the socket; front may be partial.
  std::deque<OutFrame> outbox;
  std::size_t out_offset = 0;
  std::size_t outbox_bytes = 0;

  // Locally-originated requests routed over this connection, keyed by
  // (requesting endpoint, correlation id) — correlation ids are only
  // unique per RpcEndpoint — until their response arrives; bounced as
  // error responses if the connection dies first. Entries older than
  // request_track_ttl_ms are swept (the caller abandoned the call at
  // its RPC timeout without telling us). Headers only.
  struct TrackedRequest {
    Message header;
    std::chrono::steady_clock::time_point queued_at;
  };
  std::map<std::pair<EndpointId, std::uint64_t>, TrackedRequest>
      awaiting_response;

  // Connect retry state.
  std::uint32_t attempts = 0;
  std::chrono::steady_clock::time_point retry_at{};

  /// When this connection last received a frame (steady-clock µs) — the
  /// freshness that defends its learned routes against takeover.
  std::int64_t last_frame_us = 0;

  /// Whether this connection ever completed a handshake — a later dial
  /// of the same conn is a reconnect, not a first connect (metrics).
  bool was_established = false;

  /// Set by a producer whose backpressure wait timed out; the loop
  /// fails the connection (it owns the fd).
  bool stalled = false;

  bool dead = false;  // inbound conn finished; reap it

  /// Events currently registered with epoll (-1 = not registered).
  int epoll_events = -1;
};

using ConnPtr = std::shared_ptr<TcpConn>;

class Reactor {
 public:
  /// `transport` must outlive the reactor. The loop thread is not started
  /// until start(), so the transport can finish binding its listener.
  explicit Reactor(TcpTransport& transport);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void start();

  /// Flag the loop and every backpressured producer, then join the loop
  /// thread. Safe to call repeatedly.
  void stop();

  /// Whether the calling thread is a reactor's loop thread (such a thread
  /// must never block on backpressure — it may be the one that has to
  /// drain the queue it would be waiting on).
  static bool on_reactor_thread();

  // ---- Producer API (any thread) ----------------------------------------

  /// Queue `m` on an existing connection. Returns false — with `m`
  /// untouched — when the connection is already dead (the caller falls
  /// back to the static peer map or bounces).
  bool enqueue(const ConnPtr& conn, Message& m, const Message& header,
               bool track);

  /// Find-or-create the outbound connection for `key` and queue `m` on
  /// it. `dial` is the (resolved) address used if the connection is
  /// created. Returns the connection, or null when stopping.
  ConnPtr enqueue_outbound(const std::pair<std::string, std::uint16_t>& key,
                           const TcpAddress& dial, Message& m,
                           const Message& header, bool track);

  /// Whether an outbound connection for `key` already exists (used to
  /// skip DNS resolution on the send fast path).
  bool outbound_exists(const std::pair<std::string, std::uint16_t>& key);

  /// Block the producer while `conn`'s write queue is past the high
  /// watermark (never called on the loop thread).
  void backpressure_wait(const ConnPtr& conn);

  /// Poke the loop (new work queued, stop requested).
  void wake();

 private:
  void loop();
  /// One pass over shared state at the top of a loop iteration: reap dead
  /// inbound conns, sweep stale request tracking, collect stalled conns
  /// and due dials. Returns the wait timeout in ms.
  int prepare_iteration(std::vector<ConnPtr>& to_dial,
                        std::vector<ConnPtr>& to_fail);
  /// Reconcile one connection's epoll registration with its desired
  /// interest set (loop thread; mu_ held for the interest computation).
  void epoll_update(const ConnPtr& conn) SIGMA_REQUIRES(mu_);
  void loop_accept(int listen_fd);
  void loop_dial(const ConnPtr& conn);
  void loop_connect_ready(const ConnPtr& conn);
  void loop_readable(const ConnPtr& conn);
  void loop_writable(const ConnPtr& conn);
  void loop_dispatch(const ConnPtr& conn, Message&& m);
  /// Handle one connection's epoll events (EPOLLIN/OUT/ERR/HUP).
  void handle_conn_events(const ConnPtr& conn, std::uint32_t events);
  /// Tear down a connection: bounce requests awaiting responses, drop the
  /// queue, forget learned routes. Outbound conns return to kIdle (a
  /// later send re-dials); inbound conns are reaped. `peer_eof` marks an
  /// orderly end of stream: with nothing awaiting a response and nothing
  /// queued it counts as closed, every other close of an established
  /// connection as lost.
  void close_conn(const ConnPtr& conn, const std::string& reason,
                  bool peer_eof = false);
  /// Connect attempt failed: back off and retry, or give up and bounce.
  void connect_failed(const ConnPtr& conn, const std::string& reason);
  /// Deregister a connection's fd from the epoll set (before closing it).
  void forget_fd(const ConnPtr& conn);
  /// Queue a frame on `conn` (mu_ held): encode, account, track.
  void push_frame(const ConnPtr& conn, Message&& m, const Message& header,
                  bool track) SIGMA_REQUIRES(mu_);
  /// Queue an error response to a refused request on `conn`.
  void refuse(const ConnPtr& conn, const Message& header,
              const std::string& text);
  void drain_wake_fd();

  TcpTransport& transport_;
  const TcpTransportConfig& config_;
  TcpCounters& counters_;

  Mutex mu_{LockRank::kTransport};
  CondVar write_cv_;  // backpressured producers wait here
  bool stop_ SIGMA_GUARDED_BY(mu_) = false;

  /// Outbound connections by dial address (persist across reconnects).
  std::map<std::pair<std::string, std::uint16_t>, ConnPtr> outbound_
      SIGMA_GUARDED_BY(mu_);
  /// Accepted connections.
  std::vector<ConnPtr> inbound_ SIGMA_GUARDED_BY(mu_);

  SocketFd epoll_fd_;
  SocketFd wake_fd_;  // eventfd, registered with epoll_fd_ at construction
  /// Registered fds -> connection, loop-thread-only. New fds are only
  /// registered at the top of an iteration (accepts, fresh dials), never
  /// while an event batch is being processed, so a stale event can never
  /// alias a recycled fd number.
  std::unordered_map<int, ConnPtr> by_fd_;

  std::thread thread_;
};

}  // namespace sigma::net

// Sampled distributed tracing: the in-process half of the plane whose
// context rides the RPC envelope (obs/trace_context.h, protocol v4).
//
// Spans are recorded into per-thread fixed-size ring buffers — a flight
// recorder, not a log: the rings hold the most recent spans in bounded
// memory, survive until the process dies, and are written with a seqlock
// of relaxed atomics so the hot path never takes a lock (and never trips
// TSan). Emitting an unsampled span is a branch; emitting a sampled one
// is a few dozen relaxed atomic stores. Ring registration — once per
// thread that ever records — and scrape-time iteration take the
// kTraceRegistry mutex, ranked as a leaf next to the metrics registry.
//
// The process-wide Tracer makes the sampling decision at trace roots
// (every Nth routing decision; SIGMA_TRACE_SAMPLE or --trace-sample,
// default 1/256, 0 = off), mints ids, and carries the thread-local
// "current span" that SpanScope maintains. Scraping goes through the
// kTraceDump wire op (see obs/trace_wire.h and tools/fleet_trace);
// SIGMA_TRACE_DUMP=PATH writes the local rings to a binary dump at exit
// so short-lived client processes can join the merge.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/trace_context.h"

namespace sigma::obs {

/// Span names are truncated to this many bytes (NUL-padded, not
/// necessarily NUL-terminated at full length).
inline constexpr std::size_t kSpanNameBytes = 24;

/// One finished span, as scraped from a ring. Plain data: the wire codec
/// (obs/trace_wire.h) and the Chrome JSON renderer consume it as-is.
struct SpanRecord {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  /// Wall-clock start (microseconds since the Unix epoch) so spans from
  /// different processes line up on one Perfetto timeline.
  std::uint64_t start_unix_us = 0;
  std::uint64_t duration_us = 0;
  /// Recorder-assigned thread ordinal (stable per thread, dense from 1).
  std::uint32_t tid = 0;
  char name[kSpanNameBytes] = {};
};

/// Per-thread span ring: single writer (the owning thread), any number of
/// concurrent scrapers. Each slot is a seqlock — an odd sequence marks a
/// write in progress, data words are relaxed atomics — so a scrape
/// racing an emit skips or retries the slot instead of tearing it. Fixed
/// memory; once full, each emit overwrites the oldest span (counted as
/// dropped).
class SpanRing {
 public:
  static constexpr std::size_t kSlots = 1024;  // power of two

  explicit SpanRing(std::uint32_t tid) : tid_(tid) {}

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  /// Record one span. Owner thread only.
  void emit(const SpanRecord& rec);

  /// Snapshot-copy the ring (concurrent-safe, lock-free). Appends to
  /// `out`; slots mid-write are retried a few times, then skipped.
  void collect(std::vector<SpanRecord>& out) const;

  std::uint32_t tid() const { return tid_; }

  /// Spans ever emitted on this ring.
  std::uint64_t emitted() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Spans overwritten before any scrape could have kept them.
  std::uint64_t dropped() const {
    const std::uint64_t n = emitted();
    return n > kSlots ? n - kSlots : 0;
  }

 private:
  // 4 ids + start + duration + tid = 7 words, then the packed name.
  static constexpr std::size_t kNameWords = kSpanNameBytes / 8;
  static constexpr std::size_t kDataWords = 7 + kNameWords;

  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[kDataWords] = {};
  };

  bool read_slot(const Slot& slot, SpanRecord* out) const;

  const std::uint32_t tid_;
  std::atomic<std::uint64_t> head_{0};
  Slot slots_[kSlots];
};

/// Monotonic counters of the tracing plane, folded into metrics
/// snapshots as `trace.*` (see fold_trace_stats).
struct TraceStats {
  std::uint64_t traces_started = 0;  // root sampling decisions taken
  std::uint64_t traces_sampled = 0;  // decisions that selected the trace
  std::uint64_t spans_emitted = 0;
  std::uint64_t spans_dropped = 0;  // evicted from a full ring
};

/// The process-wide tracing plane. Thread-safe throughout.
class Tracer {
 public:
  /// Default sampling: one trace per this many root decisions.
  static constexpr std::uint32_t kDefaultSampleEvery = 256;

  /// The process singleton (leaked: threads may emit until exit).
  static Tracer& instance();

  /// Sample one trace per `n` root decisions; 0 disables tracing. The
  /// first decision after a change is sampled, so n=1 traces everything.
  void set_sample_every(std::uint32_t n);
  std::uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Human-readable process identity carried in dumps ("node_server:7001").
  void set_process_label(const std::string& label);
  std::string process_label() const;

  /// Root sampling decision: a fresh trace id + root span id when
  /// sampled, a dead context otherwise.
  TraceContext begin_trace();

  /// A child context within `parent`'s trace (dead if parent is).
  TraceContext child_of(const TraceContext& parent);

  /// Record a finished span on the calling thread's ring. `name` and
  /// `suffix` (optional) are concatenated and truncated to
  /// kSpanNameBytes. No-op for unsampled contexts.
  void emit(const TraceContext& ctx, const char* name, const char* suffix,
            std::uint64_t start_unix_us, std::uint64_t duration_us);

  /// Snapshot every thread's ring (most recent spans, deduplicated).
  std::vector<SpanRecord> collect() const SIGMA_EXCLUDES(rings_mu_);

  TraceStats stats() const SIGMA_EXCLUDES(rings_mu_);

  /// The calling thread's current span context (maintained by SpanScope;
  /// what RpcEndpoint stamps onto outgoing requests).
  static TraceContext& current_context();

  /// Write the local rings as a binary span dump (see trace_wire.h) —
  /// the SIGUSR2 / SIGMA_TRACE_DUMP file format, readable by
  /// fleet_trace --local. Throws std::runtime_error on I/O failure.
  void dump_to_file(const std::string& path) const;

 private:
  Tracer();

  SpanRing& thread_ring() SIGMA_EXCLUDES(rings_mu_);
  std::uint64_t next_span_id();

  std::atomic<std::uint32_t> sample_every_{kDefaultSampleEvery};
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> traces_sampled_{0};
  std::atomic<std::uint64_t> trace_seq_{0};
  std::atomic<std::uint64_t> span_seq_{0};
  std::uint64_t seed_ = 0;  // set once at construction

  mutable Mutex rings_mu_{LockRank::kTraceRegistry};
  /// Owned forever: a ring outlives its thread so late scrapes (and the
  /// exit dump) still see the thread's final spans.
  std::vector<std::unique_ptr<SpanRing>> rings_ SIGMA_GUARDED_BY(rings_mu_);
  std::string label_ SIGMA_GUARDED_BY(rings_mu_);
};

/// Microseconds since the Unix epoch (wall clock, for cross-process
/// timeline alignment).
std::uint64_t unix_micros();

/// Fold the tracer's counters into a metrics snapshot as
/// `trace.traces_started`, `trace.traces_sampled`, `trace.spans_emitted`
/// and `trace.spans_dropped`. The tracer is process-global, not owned by
/// any registry, so every scrape folds its counters in here.
template <typename Snapshot>
void fold_trace_stats(Snapshot& snap) {
  const TraceStats t = Tracer::instance().stats();
  snap.add_counter("trace.traces_started", t.traces_started);
  snap.add_counter("trace.traces_sampled", t.traces_sampled);
  snap.add_counter("trace.spans_emitted", t.spans_emitted);
  snap.add_counter("trace.spans_dropped", t.spans_dropped);
}

/// RAII span. Construction captures the clocks and makes the span the
/// thread's current context; destruction records it. All of it is a
/// no-op when the governing context is unsampled. Name pointers must
/// outlive the scope (string literals / to_string statics).
class SpanScope {
 public:
  /// Tag: start a new trace at this scope (root sampling decision).
  struct Root {};

  /// Root span: asks the Tracer whether this trace is sampled.
  SpanScope(Root, const char* name);

  /// Child span of the thread's current context.
  explicit SpanScope(const char* name, const char* suffix = nullptr);

  /// Child span of a context received off the wire (service side): the
  /// new span's parent is the sender's span.
  SpanScope(const TraceContext& remote, const char* name,
            const char* suffix = nullptr);

  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// This span's context (what children and outgoing requests inherit).
  const TraceContext& context() const { return ctx_; }

 private:
  void enter();

  TraceContext ctx_;
  TraceContext saved_;
  const char* name_ = nullptr;
  const char* suffix_ = nullptr;
  std::uint64_t start_unix_us_ = 0;
  std::chrono::steady_clock::time_point start_{};
  bool restore_ = false;  // current_context was swapped
};

}  // namespace sigma::obs

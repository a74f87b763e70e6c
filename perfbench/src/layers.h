// Per-layer measurement for the traced run.
//
// Three sources, none of which changes the program:
//   * spans: the benchmark opens its own spans (bench.*) around the public
//     calls it makes, and reads them back with the program's own spans
//     (sc.place, route.decision, probe.gather, rpc.<Op>, svc.<Op>) from
//     the tracer's rings, scraped after every backup session and every
//     restore (obs.spans_dropped counts what the rings still overwrote);
//   * instruments the program already keeps: obs::Registry histograms,
//     DedupNode stats, backend I/O stats, transport NetStats;
//   * replays: the client-side layers (chunking, SHA-1, super-chunk and
//     handprint build) run on the workload's input in one thread,
//     timed around the public functions.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

/// Spans from the tracer's rings, deduplicated across scrapes, grouped
/// by name.
class SpanLedger {
 public:
  /// Take every span recorded since the previous scrape.
  void scrape();

  /// Spans taken so far.
  std::uint64_t collected() const { return seen_.size(); }
  double sum_us(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;
  std::vector<double> durations_us(const std::string& name) const;

 private:
  std::unordered_set<std::uint64_t> seen_;
  std::map<std::string, std::vector<double>> durations_;
};

/// One step of a workload's blocking path and the time it alone held
/// the benchmark's thread.
struct PathRow {
  std::string layer;
  double self_us = 0.0;
};

/// Restore blocking path from the spans of traced restores: client
/// assembly, ReadChunk wire and handoff, node ReadChunk service (container
/// read and parse).
std::vector<PathRow> restore_path(const SpanLedger& spans);

/// Print the self-time share of each row and name the row that bounds
/// the end-to-end figure. Returns that row's layer.
std::string print_path_table(std::ostream& os, const std::string& title,
                             const std::vector<PathRow>& rows);

/// Every histogram whose name starts with `prefix` and ends with `suffix`,
/// merged into one.
sigma::obs::HistogramSnapshot merged_histogram(
    const sigma::obs::MetricsSnapshot& snap, const std::string& prefix,
    const std::string& suffix);

/// Single-thread replays of the client-side layers on `input`, capped at
/// about `max_bytes` of it.
struct ClientReplay {
  double chunk_mbps = 0.0;
  double fingerprint_mbps = 0.0;
  double superchunk_us_per_mb = 0.0;
};
ClientReplay replay_client_layers(
    const WorkloadDef& def, const std::vector<sigma::ContentBackup>& input,
    std::uint64_t max_bytes);

/// Instruments gathered over the traced part of a run.
struct LayerReadings {
  sigma::obs::MetricsSnapshot client;   // cluster registry (routing, tcp)
  sigma::obs::MetricsSnapshot service;  // node services and backends
  sigma::DedupNodeStats nodes;          // summed over nodes
  std::uint64_t physical_bytes = 0;
  std::uint64_t backend_bytes_written = 0;
  std::uint64_t logical_bytes = 0;      // backed up while traced
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_msgs = 0;
  // Restores while traced: backend reads they caused and what they
  // returned.
  std::uint64_t restore_backend_reads = 0;
  std::uint64_t restore_backend_bytes = 0;
  std::uint64_t restored_bytes = 0;
  std::uint64_t restored_chunks = 0;
  bool tcp = false;
};

/// Backup blocking path from the spans of traced backups: client chunk +
/// hash + build (backup time outside sc.place), write-pipeline wait,
/// routing decision, probe round trip, duplicate-test round trip (from
/// the TCP transport's histogram on a TCP fleet), flush.
std::vector<PathRow> backup_path(const SpanLedger& spans,
                                 const LayerReadings& r);

/// Fill the instrument-backed per-layer metrics (routing, net, service,
/// node, storage) from `r` and the rpc spans in `spans`.
void record_layer_metrics(const LayerReadings& r, const SpanLedger& spans,
                          Report& report);

}  // namespace perfbench

#include "layers.h"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <numeric>

#include "chunking/chunker.h"
#include "chunking/super_chunk.h"
#include "common/stats.h"
#include "obs/trace.h"

namespace perfbench {

using namespace sigma;

namespace {

/// Written once per replay so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

/// The wire ops on the backup and restore paths.
constexpr const char* kOps[] = {"RoutingProbe", "DuplicateTest",
                                "WriteSuperChunk", "ReadChunk"};

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

std::uint64_t counter(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const std::uint64_t* v = snap.find_counter(name);
  return v ? *v : 0;
}

void set_percentiles(Report& report, const std::string& name,
                     const obs::HistogramSnapshot& h) {
  report.set(name + ".p50", h.percentile(0.50));
  report.set(name + ".p99", h.percentile(0.99));
}

}  // namespace

void SpanLedger::scrape() {
  for (const obs::SpanRecord& rec : obs::Tracer::instance().collect()) {
    if (!seen_.insert(rec.span_id).second) continue;
    const std::string name(rec.name, strnlen(rec.name, obs::kSpanNameBytes));
    durations_[name].push_back(static_cast<double>(rec.duration_us));
  }
}

double SpanLedger::sum_us(const std::string& name) const {
  const auto it = durations_.find(name);
  return it == durations_.end()
             ? 0.0
             : std::accumulate(it->second.begin(), it->second.end(), 0.0);
}

std::uint64_t SpanLedger::count(const std::string& name) const {
  const auto it = durations_.find(name);
  return it == durations_.end() ? 0 : it->second.size();
}

std::vector<double> SpanLedger::durations_us(const std::string& name) const {
  const auto it = durations_.find(name);
  return it == durations_.end() ? std::vector<double>{} : it->second;
}

std::vector<PathRow> backup_path(const SpanLedger& spans,
                                 const LayerReadings& r) {
  // bench.backup covers BackupClient::backup; inside it the client thread
  // chunks and hashes (on the hash pool, waiting for it), builds
  // super-chunks and, per super-chunk, holds sc.place: the routing
  // decision (route.decision, whose probe.gather waits for the probe
  // round), the synchronous duplicate test, and the wait for a free
  // write-pipeline slot.
  const double backup = spans.sum_us("bench.backup");
  const double place = spans.sum_us("sc.place");
  const double decision = spans.sum_us("route.decision");
  const double gather = spans.sum_us("probe.gather");
  // Over TCP one reactor thread closes every rpc span of the fleet's
  // single connection, more per backup session than its ring holds; the
  // transport's own histogram has every call.
  const obs::HistogramSnapshot* dup_hist =
      r.client.find_histogram("tcp.rpc_us.DuplicateTest");
  const double dup = r.tcp ? (dup_hist ? static_cast<double>(dup_hist->sum)
                                       : 0.0)
                           : spans.sum_us("rpc.DuplicateTest");
  auto self = [](double v) { return std::max(0.0, v); };
  return {
      {"client: chunk + SHA-1 + super-chunk build", self(backup - place)},
      {"cluster: write-pipeline wait (WriteSuperChunk)",
       self(place - decision - dup)},
      {"routing: decision (self)", self(decision - gather)},
      {"routing: probe round trip", gather},
      {"net: DuplicateTest round trip", dup},
      {"cluster: flush (seal + fsync)", spans.sum_us("bench.flush")},
  };
}

std::vector<PathRow> restore_path(const SpanLedger& spans) {
  // bench.restore covers SigmaDedupe::restore: recipe lookup and chunk
  // assembly on the client, one blocking ReadChunk round trip per chunk,
  // of which svc.ReadChunk is the node's service time (container get +
  // parse + copy-out).
  const double restore = spans.sum_us("bench.restore");
  const double rpc = spans.sum_us("rpc.ReadChunk");
  const double svc = spans.sum_us("svc.ReadChunk");
  return {
      {"client: recipe + assembly", std::max(0.0, restore - rpc)},
      {"net: ReadChunk wire + handoff", std::max(0.0, rpc - svc)},
      {"node/storage: ReadChunk service (container read)", svc},
  };
}

std::string print_path_table(std::ostream& os, const std::string& title,
                             const std::vector<PathRow>& rows) {
  double total = 0.0;
  for (const PathRow& r : rows) total += r.self_us;
  const auto bound = std::max_element(
      rows.begin(), rows.end(),
      [](const PathRow& a, const PathRow& b) { return a.self_us < b.self_us; });
  os << "# blocking path: " << title << " (self time, "
     << std::fixed << std::setprecision(1) << total / 1e3 << " ms total)\n";
  for (const PathRow& r : rows) {
    os << "#   " << std::left << std::setw(50) << r.layer << std::right
       << std::setw(12) << r.self_us / 1e3 << " ms " << std::setw(6)
       << (total > 0.0 ? r.self_us / total * 100.0 : 0.0) << " %\n";
  }
  const std::string layer = bound == rows.end() ? "" : bound->layer;
  os << "#   bounded by: " << layer << "\n";
  os << std::defaultfloat << std::setprecision(6);
  return layer;
}

obs::HistogramSnapshot merged_histogram(const obs::MetricsSnapshot& snap,
                                        const std::string& prefix,
                                        const std::string& suffix) {
  obs::HistogramSnapshot out;
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.count == 0 || h.name.size() < prefix.size() + suffix.size() ||
        h.name.compare(0, prefix.size(), prefix) != 0 ||
        h.name.compare(h.name.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
      continue;
    }
    out.min = out.count == 0 ? h.min : std::min(out.min, h.min);
    out.max = std::max(out.max, h.max);
    out.count += h.count;
    out.sum += h.sum;
    if (out.buckets.size() < h.buckets.size()) {
      out.buckets.resize(h.buckets.size(), 0);
    }
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      out.buckets[i] += h.buckets[i];
    }
  }
  return out;
}

ClientReplay replay_client_layers(const WorkloadDef& def,
                                  const std::vector<ContentBackup>& input,
                                  std::uint64_t max_bytes) {
  // The latest version first: what a client backs up next.
  std::vector<ByteView> files;
  std::uint64_t bytes = 0;
  for (auto v = input.rbegin(); v != input.rend() && bytes < max_bytes; ++v) {
    for (const ContentFile& f : v->files) {
      if (bytes >= max_bytes) break;
      files.emplace_back(f.data.data(), f.data.size());
      bytes += f.data.size();
    }
  }
  const auto chunker = make_chunker(def.chunking, kChunkBytes);
  ClientReplay out;

  Stopwatch chunk_timer;
  std::vector<std::vector<ChunkBoundary>> cuts;
  cuts.reserve(files.size());
  for (const ByteView& f : files) cuts.push_back(chunker->chunk(f));
  out.chunk_mbps = static_cast<double>(bytes) / 1e6 / chunk_timer.seconds();

  std::vector<ChunkRecord> records;
  Stopwatch hash_timer;
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const ChunkBoundary& b : cuts[i]) {
      records.push_back(
          {Fingerprint::of(files[i].subspan(b.offset, b.size)), b.size});
    }
  }
  out.fingerprint_mbps =
      static_cast<double>(bytes) / 1e6 / hash_timer.seconds();

  // Super-chunk grouping plus the handprint each routing decision starts
  // from (k = the node default).
  const std::size_t k = DedupNodeConfig{}.handprint_size;
  std::uint64_t sink = 0;  // keeps the handprints observable
  Stopwatch build_timer;
  SuperChunkBuilder builder(BackupClientConfig{}.super_chunk_bytes);
  auto route_unit = [&](const SuperChunk& sc) {
    if (sc.chunks.empty()) return;
    sink += compute_handprint(sc.chunks, k).front().prefix64();
  };
  for (const ChunkRecord& r : records) {
    if (builder.add(r)) route_unit(builder.take());
  }
  route_unit(builder.flush());
  out.superchunk_us_per_mb =
      build_timer.seconds() * 1e6 / (static_cast<double>(bytes) / 1e6);
  g_sink = sink;
  return out;
}

void record_layer_metrics(const LayerReadings& r, const SpanLedger& spans,
                          Report& report) {
  // Routing (client registry).
  const obs::HistogramSnapshot* route =
      r.client.find_histogram("route.decision_us");
  set_percentiles(report, "cluster.route_us",
                  route ? *route : obs::HistogramSnapshot{});
  report.set("cluster.route_decisions",
             static_cast<double>(counter(r.client, "route.decisions_batched") +
                                 counter(r.client,
                                         "route.decisions_sequential")));
  report.set("routing.probe_msgs",
             static_cast<double>(counter(r.client, "route.probe_messages")));

  // Round trips: the TCP transport's per-op histograms; over loopback
  // (no TCP transport) the rpc.<Op> spans, which time the same interval.
  // Service time: every node's svc.node<i>.op_us.<Op>, merged. Their
  // difference is queueing plus wire and handoff.
  for (const char* op : kOps) {
    const std::string name = op;
    double rpc_mean = 0.0;
    if (r.tcp) {
      const obs::HistogramSnapshot* h =
          r.client.find_histogram("tcp.rpc_us." + name);
      const obs::HistogramSnapshot rpc = h ? *h : obs::HistogramSnapshot{};
      set_percentiles(report, "net.rpc_us." + name, rpc);
      rpc_mean = rpc.mean();
    } else {
      const std::vector<double> d = spans.durations_us("rpc." + name);
      report.set("net.rpc_us." + name + ".p50", grouped_quantile(d, 0.50));
      report.set("net.rpc_us." + name + ".p99", grouped_quantile(d, 0.99));
      rpc_mean = mean(d);
    }
    const obs::HistogramSnapshot svc =
        merged_histogram(r.service, "svc.", ".op_us." + name);
    set_percentiles(report, "service.op_us." + name, svc);
    report.set("service.queue_us." + name, rpc_mean - svc.mean());
  }
  report.set("net.wire_bytes_per_logical_byte",
             ratio(r.wire_bytes, r.logical_bytes));
  report.set("net.msgs_per_mb",
             ratio(r.wire_msgs, r.logical_bytes) * 1e6);

  // Node dedup path: Bloom filter -> fingerprint cache -> chunk index.
  const std::uint64_t chunks = r.nodes.duplicate_chunks + r.nodes.unique_chunks;
  report.set("node.duplicate_chunk_frac",
             ratio(r.nodes.duplicate_chunks, chunks));
  report.set("node.disk_index_lookups_per_chunk",
             ratio(r.nodes.disk_index_lookups, chunks));
  report.set("node.bloom_avoided_frac",
             ratio(r.nodes.disk_lookups_avoided_by_bloom,
                   r.nodes.disk_lookups_avoided_by_bloom +
                       r.nodes.disk_index_lookups));
  report.set("node.container_prefetches",
             static_cast<double>(r.nodes.container_prefetches));

  // Storage: reads per restored byte and chunk, writes per unique byte,
  // and the file backend's put/fsync latencies (a memory backend keeps
  // none, so those read 0 on a loopback fleet).
  report.set("storage.read_amp",
             ratio(r.restore_backend_bytes, r.restored_bytes));
  report.set("storage.reads_per_chunk",
             ratio(r.restore_backend_reads, r.restored_chunks));
  report.set("storage.write_amp",
             ratio(r.backend_bytes_written, r.physical_bytes));
  set_percentiles(report, "storage.put_us",
                  merged_histogram(r.service, "store.", "put_us"));
  set_percentiles(report, "storage.fsync_us",
                  merged_histogram(r.service, "store.", "fsync_us"));
}

}  // namespace perfbench

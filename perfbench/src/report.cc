#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"backup_mbps", "MB/s"},
      {"restore_mbps", "MB/s"},
      {"restore_file_ms.p50", "ms"},
      {"restore_file_ms.p99", "ms"},
      {"dedup_ratio", "ratio"},
      {"edr", "ratio"},
      {"lookup_msgs_per_gb", "msgs/GB"},
      {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"chunking.chunk_mbps", "MB/s"},
      {"chunking.superchunk_us_per_mb", "us/MB"},
      {"common.fingerprint_mbps", "MB/s"},
      {"cluster.route_us.p50", "us"},
      {"cluster.route_us.p99", "us"},
      {"cluster.route_decisions", "count"},
      {"routing.probe_msgs", "count"},
      {"net.rpc_us.RoutingProbe.p50", "us"},
      {"net.rpc_us.RoutingProbe.p99", "us"},
      {"net.rpc_us.DuplicateTest.p50", "us"},
      {"net.rpc_us.DuplicateTest.p99", "us"},
      {"net.rpc_us.WriteSuperChunk.p50", "us"},
      {"net.rpc_us.WriteSuperChunk.p99", "us"},
      {"net.rpc_us.ReadChunk.p50", "us"},
      {"net.rpc_us.ReadChunk.p99", "us"},
      {"net.wire_bytes_per_logical_byte", "B/B"},
      {"net.msgs_per_mb", "msgs/MB"},
      {"service.op_us.RoutingProbe.p99", "us"},
      {"service.op_us.DuplicateTest.p50", "us"},
      {"service.op_us.DuplicateTest.p99", "us"},
      {"service.op_us.WriteSuperChunk.p50", "us"},
      {"service.op_us.WriteSuperChunk.p99", "us"},
      {"service.op_us.ReadChunk.p50", "us"},
      {"service.op_us.ReadChunk.p99", "us"},
      {"service.queue_us.RoutingProbe", "us"},
      {"service.queue_us.DuplicateTest", "us"},
      {"service.queue_us.WriteSuperChunk", "us"},
      {"service.queue_us.ReadChunk", "us"},
      {"node.duplicate_chunk_frac", "frac"},
      {"node.disk_index_lookups_per_chunk", "count/chunk"},
      {"node.bloom_avoided_frac", "frac"},
      {"node.container_prefetches", "count"},
      {"storage.read_amp", "B/B"},
      {"storage.reads_per_chunk", "count/chunk"},
      {"storage.write_amp", "B/B"},
      {"cluster.read_chunk_us.p50", "us"},
      {"cluster.read_chunk_us.p99", "us"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.spans_dropped", "count"},
  };
  return defs;
}

const std::vector<MetricDef>& info_metrics() {
  static const std::vector<MetricDef> defs = {
      {"failed_ops_frac", "frac"},
      // Per-layer readings that can read the same on every run: a routing
      // probe is served in about 1 us, the histogram's resolution, and a
      // memory backend (backup-linux) keeps no put or fsync latencies.
      {"service.op_us.RoutingProbe.p50", "us"},
      {"storage.put_us.p50", "us"},
      {"storage.put_us.p99", "us"},
      {"storage.fsync_us.p50", "us"},
      {"storage.fsync_us.p99", "us"},
      {"restore_files", "count"},
      {"backup_passes", "count"},
      {"cold_backup_mbps", "MB/s"},
      {"backup_mbps.untraced", "MB/s"},
      {"backup_mbps.traced", "MB/s"},
      {"restore_mbps.untraced", "MB/s"},
      {"restore_mbps.traced", "MB/s"},
  };
  return defs;
}

const char* unit_of(const std::string& name) {
  for (const auto* catalog :
       {&end_to_end_metrics(), &per_layer_metrics(), &info_metrics()}) {
    for (const MetricDef& d : *catalog) {
      if (name == d.name) return d.unit;
    }
  }
  throw std::logic_error("perfbench: metric '" + name + "' is not cataloged");
}

void Report::set(const std::string& name, double value) {
  unit_of(name);  // refuse uncataloged names
  values_[name] = value;
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::print_text(std::ostream& os) const {
  for (const auto& [key, value] : notes_) {
    os << "# " << key << ": " << value << "\n";
  }
  for (const auto& [name, value] : values_) {
    os << std::left << std::setw(40) << name << " " << std::right
       << std::setw(16) << format_number(value) << " " << unit_of(name)
       << "\n";
  }
}

std::string Report::json_line(const std::vector<MetricDef>& catalog,
                              const Outcome& outcome) const {
  std::ostringstream os;
  os << "{\"correct\": " << (outcome.correct() ? "true" : "false")
     << ", \"attempted\": " << outcome.attempted
     << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : catalog) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) {
      throw std::logic_error(std::string("perfbench: metric '") + d.name +
                             "' was not measured");
    }
    os << (first ? "" : ", ") << "\"" << d.name
       << "\": {\"value\": " << format_number(it->second) << ", \"unit\": \""
       << d.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank =
      std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double grouped_quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double rank = std::clamp(p, 0.0, 1.0) * n;
  const auto at = std::min(static_cast<std::size_t>(rank), v.size() - 1);
  const auto lo = std::lower_bound(v.begin(), v.end(), v[at]) - v.begin();
  const auto hi = std::upper_bound(v.begin(), v.end(), v[at]) - v.begin();
  return v[at] - 0.5 +
         (rank - static_cast<double>(lo)) / static_cast<double>(hi - lo);
}

double weighted_quantile(std::vector<WeightedSample> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end(),
            [](const WeightedSample& a, const WeightedSample& b) {
              return a.value < b.value;
            });
  double total = 0.0;
  for (const WeightedSample& s : v) total += s.weight;
  p = std::clamp(p, 0.0, 1.0) * total;
  double below = 0.0;  // weight of the samples before the current one
  double prev_pos = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double pos = below + v[i].weight / 2.0;
    if (p <= pos) {
      if (i == 0) return v[0].value;
      const double t = (p - prev_pos) / (pos - prev_pos);
      return v[i - 1].value + (v[i].value - v[i - 1].value) * t;
    }
    below += v[i].weight;
    prev_pos = pos;
  }
  return v.back().value;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) {
    throw std::logic_error("perfbench: metric value is not finite");
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench

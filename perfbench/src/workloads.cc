#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/random.h"
#include "common/stats.h"
#include "layers.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace perfbench {

using namespace sigma;

namespace {

/// Share of --seconds given to the timed backups of a backup workload;
/// the rest restores the verification sample.
constexpr double kBackupShare = 0.7;
/// Backup passes measured at least (after the warm-up pass).
constexpr int kMinMeasuredPasses = 4;
/// restore-linux sets up (generate, start, back up) this many fleets, one
/// dataset each, and restores from all of them in turn.
constexpr int kRestoreSetups = 4;
/// restore-linux restores the files of this many latest versions.
constexpr std::size_t kRestoreVersions = 2;
/// restore-linux takes its restore throughput per slice this long.
constexpr double kRateSliceSeconds = 2.0;
/// Traced runs spend this share of --seconds on the Cluster::read_chunk
/// replay.
constexpr double kReadChunkShare = 0.15;
/// The verification sample of a backup workload is drawn from files up
/// to this size: at today's restore speed one 19 MB VM image alone would
/// outlast the run. Restore speed is per byte, and restore-linux measures
/// it on the full latest versions.
constexpr std::uint64_t kMaxSampleFileBytes = 512 * 1024;
/// Quantile edges of the file-size strata restores are drawn from (see
/// StrataSequence). They are finer around the median and at the top, so
/// that the p50 rests on files close to the median size and every round
/// of draws reaches the largest 1% of files, on which the p99 rests,
/// rather than on whichever files a run happened to reach. Latency
/// percentiles weight each restore by its stratum's share of the files,
/// so they stay those of the whole population.
constexpr double kStrataEdges[] = {0.0,  0.1, 0.2, 0.3, 0.4,  0.45,
                                   0.5,  0.55, 0.6, 0.7, 0.8, 0.9,
                                   0.95, 0.98, 0.99, 1.0};
constexpr std::size_t kSizeStrata = std::size(kStrataEdges) - 1;
/// Client-side replays chunk and hash about this much of the input.
constexpr std::uint64_t kReplayBytes = 32ull << 20;

double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }

/// Peak resident set of this process, MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string join(const std::vector<double>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? " " : "") << std::fixed << std::setprecision(1) << v[i];
  }
  return os.str();
}

/// Seed of the run's i-th dataset; dataset 0 uses the run's seed itself.
/// Each backup pass and each restore-linux fleet gets a dataset of its
/// own, so a run's medians average over several inputs, not one.
std::uint64_t dataset_seed(std::uint64_t seed, std::size_t i) {
  return seed ^ (static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull);
}

/// One fleet and the input backed up into it. Members are destroyed
/// fleet first, then the registry it records into.
struct Setup {
  std::uint64_t seed = 0;
  std::vector<ContentBackup> input;
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<Fleet> fleet;
};

/// Generate dataset `index` and start a fleet for it (with a registry
/// when traced). Returns the set-up time.
double set_up(const WorkloadDef& def, const Options& opts, std::size_t index,
              bool traced, Setup& s) {
  s.fleet.reset();
  s.registry.reset();
  s.input.clear();  // one full input in memory at a time
  Stopwatch setup;
  s.seed = dataset_seed(opts.seed, index);
  s.input = generate_input(def, s.seed, opts.scale);
  if (traced) s.registry = std::make_unique<obs::Registry>();
  s.fleet = std::make_unique<Fleet>(
      def, opts.work_dir / ("fleet-" + std::to_string(index)),
      s.registry.get());
  return setup.seconds();
}

/// Backend reads of every node of every set-up, summed.
IoStats backend_reads(std::vector<Setup>& setups) {
  IoStats sum;
  for (Setup& s : setups) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      const IoStats io = s.fleet->node(i).backend().stats();
      sum.reads += io.reads;
      sum.bytes_read += io.bytes_read;
    }
  }
  return sum;
}

/// A file of a set-up's input.
struct FileRef {
  std::size_t setup;
  std::size_t version;
  std::size_t file;
};

/// The size strata a run's restores visit, in order: round after round,
/// each round a fresh seeded permutation of the kSizeStrata strata. Any
/// run of consecutive restores, across passes and fleets, thus covers the
/// file-size distribution evenly, and per-file latency percentiles do not
/// hinge on which few files a run happened to reach.
class StrataSequence {
 public:
  explicit StrataSequence(std::uint64_t seed) : rng_(seed ^ 0x5E1EC7ull) {}

  std::size_t next() {
    if (pos_ == round_.size()) {
      round_.resize(kSizeStrata);
      std::iota(round_.begin(), round_.end(), std::size_t{0});
      for (std::size_t n = round_.size(); n > 1; --n) {
        std::swap(round_[n - 1], round_[rng_.next_below(n)]);
      }
      pos_ = 0;
    }
    return round_[pos_++];
  }

 private:
  Rng rng_;
  std::vector<std::size_t> round_;
  std::size_t pos_ = 0;
};

/// A file drawn for restore: its stratum and that stratum's share of
/// the files.
struct Draw {
  FileRef ref;
  std::size_t stratum;
  double share;
};

/// One set-up's files (up to `max_bytes` each) of the versions from
/// `first` on, sorted by size into the strata of kStrataEdges, each in
/// seeded order.
class SizeStrata {
 public:
  SizeStrata(const Setup& s, std::size_t setup, std::size_t first,
             std::uint64_t max_bytes) {
    std::vector<FileRef> refs;
    for (std::size_t v = first; v < s.input.size(); ++v) {
      for (std::size_t f = 0; f < s.input[v].files.size(); ++f) {
        if (s.input[v].files[f].data.size() <= max_bytes) {
          refs.push_back({setup, v, f});
        }
      }
    }
    auto size = [&](const FileRef& r) {
      return s.input[r.version].files[r.file].data.size();
    };
    std::stable_sort(refs.begin(), refs.end(),
                     [&](const FileRef& a, const FileRef& b) {
                       return size(a) < size(b);
                     });
    // Stratum k holds sorted positions [edge[k], edge[k + 1]); with at
    // least as many files as strata, every stratum gets one or more.
    const std::size_t n = refs.size();
    std::vector<std::size_t> edge(kSizeStrata + 1, n);
    edge[0] = 0;
    for (std::size_t k = 1; k < kSizeStrata; ++k) {
      auto at = static_cast<std::size_t>(kStrataEdges[k] *
                                         static_cast<double>(n));
      if (n >= kSizeStrata) {
        at = std::clamp(at, edge[k - 1] + 1, n - (kSizeStrata - k));
      }
      edge[k] = std::max(at, edge[k - 1]);
    }
    Rng rng(s.seed ^ 0xF11E5ull);
    for (std::size_t k = 0; k < kSizeStrata; ++k) {
      Stratum st;
      st.files.assign(refs.begin() + static_cast<long>(edge[k]),
                      refs.begin() + static_cast<long>(edge[k + 1]));
      for (std::size_t m = st.files.size(); m > 1; --m) {
        std::swap(st.files[m - 1], st.files[rng.next_below(m)]);
      }
      st.share = n == 0 ? 0.0
                        : static_cast<double>(st.files.size()) /
                              static_cast<double>(n);
      if (!st.files.empty()) strata_.push_back(std::move(st));
    }
    files_ = n;
  }

  std::size_t files() const { return files_; }

  /// The next file of stratum `k` (cycling within it). With fewer files
  /// than strata, `k` maps onto the strata there are.
  Draw take(std::size_t k) {
    if (strata_.empty()) throw std::logic_error("no files to restore");
    Stratum& st = strata_[k * strata_.size() / kSizeStrata];
    const FileRef ref = st.files[st.next++ % st.files.size()];
    return {ref, k, st.share};
  }

 private:
  struct Stratum {
    std::vector<FileRef> files;
    std::size_t next = 0;
    double share = 0.0;
  };
  std::vector<Stratum> strata_;
  std::size_t files_ = 0;
};

/// Per-file restore latencies and volume. Throughput is taken per slice
/// of the restore phase (each backup pass's verification sample, or
/// kRateSliceSeconds of restore-linux) and reported as the median over
/// slices, so one slow stretch of a run does not move it. Latency
/// percentiles weight each restore by its stratum's share of the files
/// over the restores drawn from that stratum.
struct RestoreSamples {
  struct Sample {
    double ms;
    std::size_t stratum;
    double share;
  };
  std::vector<Sample> samples;
  std::vector<double> slice_mbps;
  std::uint64_t slice_bytes = 0;
  double slice_seconds = 0.0;  // sum of the slice's latencies

  void add(double latency_ms, std::uint64_t file_bytes, const Draw& draw) {
    samples.push_back({latency_ms, draw.stratum, draw.share});
    slice_bytes += file_bytes;
    slice_seconds += latency_ms / 1e3;
  }
  void end_slice() {
    if (slice_seconds > 0.0) {
      slice_mbps.push_back(mb(slice_bytes) / slice_seconds);
    }
    slice_bytes = 0;
    slice_seconds = 0.0;
  }
  double mbps() const { return median(slice_mbps); }
  double latency_ms(double p) const {
    std::vector<std::size_t> draws(kSizeStrata, 0);
    for (const Sample& s : samples) ++draws[s.stratum];
    std::vector<WeightedSample> weighted;
    for (const Sample& s : samples) {
      weighted.push_back(
          {s.ms, s.share / static_cast<double>(draws[s.stratum])});
    }
    return weighted_quantile(std::move(weighted), p);
  }
};

/// Restore one drawn file through the facade (in a bench.restore root
/// span), verify it, and add the latency to `samples`.
void restore_one(Setup& s, const Draw& draw, Outcome& outcome,
                 RestoreSamples& samples) {
  const ContentBackup& version = s.input[draw.ref.version];
  const ContentFile& file = version.files[draw.ref.file];
  const double ms = checked_restore(
      [&] {
        obs::SpanScope span(obs::SpanScope::Root{}, "bench.restore");
        return s.fleet->dedupe().restore(version.session, file.path);
      },
      file.data, outcome);
  if (ms >= 0.0) samples.add(ms, file.data.size(), draw);
}

void record_restore_metrics(const RestoreSamples& s, Report& report) {
  report.set("restore_mbps", s.mbps());
  report.set("restore_file_ms.p50", s.latency_ms(0.50));
  report.set("restore_file_ms.p99", s.latency_ms(0.99));
  report.set("restore_files", static_cast<double>(s.samples.size()));
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Quality metrics of finished backups, one entry per dataset.
struct QualitySamples {
  std::vector<double> dedup_ratio;
  std::vector<double> edr;
  std::vector<double> lookup_msgs_per_gb;

  void add(const ClusterReport& r) {
    dedup_ratio.push_back(r.dedup_ratio());
    edr.push_back(r.effective_dedup_ratio());
    lookup_msgs_per_gb.push_back(
        static_cast<double>(r.messages.total()) /
        (static_cast<double>(r.logical_bytes) / 1e9));
  }
  /// Means over the datasets: these are properties of the data and the
  /// routing, not timings, so no slow stretch of a run skews them.
  void record(Report& report) const {
    report.set("dedup_ratio", mean(dedup_ratio));
    report.set("edr", mean(edr));
    report.set("lookup_msgs_per_gb", mean(lookup_msgs_per_gb));
  }
};

/// Back up every version of the set-up's input, then flush, in
/// bench.backup / bench.flush spans. Returns the logical bytes and adds
/// the dataset's shape to `report`; a session that throws counts as a
/// failed operation.
std::uint64_t backup_all(Setup& s, Outcome& outcome, SpanLedger* spans,
                         Report& report, std::ostream& log) {
  std::uint64_t logical = 0;
  std::uint64_t chunks = 0;
  for (const ContentBackup& version : s.input) {
    ++outcome.attempted;
    try {
      obs::SpanScope span(obs::SpanScope::Root{}, "bench.backup");
      const BackupSummary summary =
          s.fleet->dedupe().backup(version.session, version.files);
      logical += summary.logical_bytes;
      chunks += summary.chunk_count;
    } catch (const std::exception& e) {
      ++outcome.failed;
      log << "# FAILED backup of " << version.session << ": " << e.what()
          << "\n";
    }
    // Scrape per session so the per-thread span rings never wrap.
    if (spans) spans->scrape();
  }
  {
    obs::SpanScope span(obs::SpanScope::Root{}, "bench.flush");
    s.fleet->dedupe().flush();
  }
  if (spans) spans->scrape();
  InputShape shape = shape_of(s.input);
  shape.chunks = chunks;
  report.note("dataset seed " + std::to_string(s.seed), shape.describe());
  return logical;
}

/// Fold the counters of a traced fleet's backup into `r`: node dedup
/// stats, backend writes, logical/physical bytes and wire traffic.
void read_backup_counters(Fleet& fleet, LayerReadings& r) {
  for (std::size_t i = 0; i < kNodes; ++i) {
    const DedupNodeStats s = fleet.node(i).stats();
    r.nodes.logical_bytes += s.logical_bytes;
    r.nodes.physical_bytes += s.physical_bytes;
    r.nodes.super_chunks += s.super_chunks;
    r.nodes.duplicate_chunks += s.duplicate_chunks;
    r.nodes.unique_chunks += s.unique_chunks;
    r.nodes.disk_index_lookups += s.disk_index_lookups;
    r.nodes.disk_lookups_avoided_by_bloom += s.disk_lookups_avoided_by_bloom;
    r.nodes.container_prefetches += s.container_prefetches;
    r.backend_bytes_written += fleet.node(i).backend().stats().bytes_written;
  }
  const ClusterReport report = fleet.dedupe().report();
  r.physical_bytes += report.physical_bytes;
  r.logical_bytes += report.logical_bytes;
  const net::NetStats net = fleet.dedupe().cluster().net_stats();
  r.wire_bytes += net.bytes_sent;
  r.wire_msgs += net.messages_sent;
}

/// Fold a traced set-up's registries into `r`; called once per set-up,
/// when it is done.
void read_registries(const Setup& s, LayerReadings& r) {
  if (!s.registry) return;
  r.client.merge(s.registry->snapshot());
  r.service.merge(s.fleet->service_metrics());
}

/// Which restores run with the tracer sampling every trace.
enum class TracedRestores { kNone, kAll, kEveryOther };

/// Restore files, verified, until `budget_s` is spent (after at least
/// one file) or `max_files` are done: the i-th from set-up i % setups,
/// from the size stratum `sequence` names next. Traced restores go to
/// `traced`, the others to `untraced`, in throughput slices of
/// kRateSliceSeconds; the backend reads and chunks they all cost go to
/// `r`, and the files to `restored`.
void restore_files(std::vector<Setup>& setups,
                   std::vector<SizeStrata>& strata, StrataSequence& sequence,
                   double budget_s, std::size_t max_files,
                   TracedRestores traced_restores, Outcome& outcome,
                   RestoreSamples& untraced,
                   RestoreSamples& traced, SpanLedger& spans,
                   LayerReadings& r, std::vector<FileRef>& restored) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const IoStats before = backend_reads(setups);
  Stopwatch phase;
  double next_cut = kRateSliceSeconds;
  for (std::size_t n = 0; n < max_files; ++n) {
    const double elapsed = phase.seconds();
    if (n > 0 && elapsed >= budget_s) break;
    if (elapsed >= next_cut) {
      untraced.end_slice();
      traced.end_slice();
      next_cut += kRateSliceSeconds;
    }
    const bool traced_restore =
        traced_restores == TracedRestores::kAll ||
        (traced_restores == TracedRestores::kEveryOther && n % 2 == 1);
    tracer.set_sample_every(traced_restore ? 1 : 0);
    const Draw draw = strata[n % setups.size()].take(sequence.next());
    const FileRef& ref = draw.ref;
    Setup& s = setups[ref.setup];
    restore_one(s, draw, outcome, traced_restore ? traced : untraced);
    if (traced_restore) spans.scrape();
    const ContentBackup& v = s.input[ref.version];
    if (const auto recipe = s.fleet->dedupe().director().find(
            v.session, v.files[ref.file].path)) {
      r.restored_chunks += recipe->chunks.size();
    }
    r.restored_bytes += v.files[ref.file].data.size();
    restored.push_back(ref);
  }
  tracer.set_sample_every(0);
  spans.scrape();
  untraced.end_slice();
  traced.end_slice();
  const IoStats after = backend_reads(setups);
  r.restore_backend_reads += after.reads - before.reads;
  r.restore_backend_bytes += after.bytes_read - before.bytes_read;
}

/// Time Cluster::read_chunk from outside on the chunks of the files of
/// `order`, for `budget_s`; every chunk read is checked against its
/// fingerprint. Returns per-call microseconds.
std::vector<double> replay_read_chunk(std::vector<Setup>& setups,
                                      const std::vector<FileRef>& order,
                                      double budget_s, Outcome& outcome,
                                      std::ostream& log) {
  std::vector<double> us;
  Stopwatch phase;
  for (const FileRef& ref : order) {
    Setup& s = setups[ref.setup];
    const ContentBackup& v = s.input[ref.version];
    const auto recipe =
        s.fleet->dedupe().director().find(v.session, v.files[ref.file].path);
    if (!recipe) continue;
    for (const RecipeEntry& e : recipe->chunks) {
      if (phase.seconds() >= budget_s && !us.empty()) return us;
      const auto start = std::chrono::steady_clock::now();
      const std::optional<Buffer> chunk =
          s.fleet->dedupe().cluster().read_chunk(e.node, e.fp);
      us.push_back(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start)
                       .count());
      if (!chunk || Fingerprint::of(ByteView{chunk->data(), chunk->size()}) !=
                        e.fp) {
        ++outcome.attempted;
        ++outcome.failed;
        log << "# FAILED read_chunk " << e.fp.hex() << " on node " << e.node
            << "\n";
      }
    }
  }
  return us;
}

std::uint64_t spans_emitted() {
  return obs::Tracer::instance().stats().spans_emitted;
}

void note_run(const WorkloadDef& def, const Options& opts, Fleet& fleet,
              Report& report) {
  report.note("workload", def.name);
  report.note("why", def.why);
  report.note("seed", std::to_string(opts.seed));
  report.note("fleet", fleet.describe());
  std::uint64_t min_containers = ~0ull;
  std::uint64_t max_containers = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::uint64_t c = fleet.node(i).container_store().container_count();
    min_containers = std::min(min_containers, c);
    max_containers = std::max(max_containers, c);
  }
  report.note("containers per node",
              std::to_string(min_containers) + ".." +
                  std::to_string(max_containers) + " (fingerprint cache " +
                  std::to_string(
                      fleet.node(0).config().cache_capacity_containers) +
                  " containers per node)");
}

/// The rest of a traced run, once its workload has been measured: the
/// Cluster::read_chunk replay, the instrument-backed and replayed
/// per-layer metrics, the trace overhead and the blocking-path tables
/// (the backup one with `backup_table`). `e2e` names the end-to-end
/// metric the overhead is taken on.
void finish_traced(const WorkloadDef& def, const Options& opts,
                   std::vector<Setup>& setups,
                   const std::vector<FileRef>& order, LayerReadings& readings,
                   const SpanLedger& spans, const std::string& e2e,
                   double untraced, double traced,
                   std::uint64_t emitted_before, bool backup_table,
                   RunResult& res, std::ostream& log) {
  Report& report = res.report;
  for (const Setup& s : setups) read_registries(s, readings);
  const std::vector<double> read_us = replay_read_chunk(
      setups, order, opts.seconds * kReadChunkShare, res.outcome, log);
  report.set("cluster.read_chunk_us.p50", quantile(read_us, 0.50));
  report.set("cluster.read_chunk_us.p99", quantile(read_us, 0.99));
  record_layer_metrics(readings, spans, report);

  const ClientReplay replay =
      replay_client_layers(def, setups.back().input, kReplayBytes);
  report.set("chunking.chunk_mbps", replay.chunk_mbps);
  report.set("common.fingerprint_mbps", replay.fingerprint_mbps);
  report.set("chunking.superchunk_us_per_mb", replay.superchunk_us_per_mb);

  report.set(e2e + ".untraced", untraced);
  report.set(e2e + ".traced", traced);
  report.set("obs.trace_overhead_pct", (untraced - traced) / untraced * 100.0);
  // Spans the rings overwrote before a scrape kept them.
  report.set("obs.spans_dropped",
             static_cast<double>(spans_emitted() - emitted_before -
                                 spans.collected()));
  const std::string name = def.name;
  if (backup_table) {
    print_path_table(log, name + " backups, traced passes",
                     backup_path(spans, readings));
  }
  print_path_table(log, name + " restores, traced",
                   restore_path(spans));
}

// ---------------------------------------------------------------------------
// backup-linux, backup-vm
// ---------------------------------------------------------------------------

RunResult run_backup(const WorkloadDef& def, const Options& opts,
                     std::ostream& log) {
  RunResult res;
  Report& report = res.report;
  Outcome& outcome = res.outcome;
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::uint64_t emitted_before = spans_emitted();

  std::vector<double> setup_s;
  std::vector<double> mbps_untraced;
  std::vector<double> mbps_traced;
  QualitySamples quality;
  std::vector<Setup> setups(1);
  Setup& cur = setups.front();
  SpanLedger spans;
  LayerReadings readings;
  readings.tcp = def.tcp_file_fleet;

  // Pass 0 warms the process up (thread pools, allocator) and is reported
  // apart as cold_backup_mbps: a client process pays it once. Every pass
  // sets up anew (input generation and fleet start are set-up) on a
  // dataset of its own, and is followed, outside the timed backup, by a
  // verification sample of that dataset: its files of every version,
  // each from the next size stratum of a seeded sequence that runs on
  // across passes, restored and compared for (1 - kBackupShare) /
  // kBackupShare of the pass's backup time. Traced
  // runs back each dataset up twice, untraced (odd passes) then traced
  // (even passes); only the traced passes restore, traced, and the run
  // ends on one.
  RestoreSamples untraced;
  RestoreSamples traced;
  StrataSequence sequence(opts.seed);
  std::vector<FileRef> order;  // the last verification sample
  double measured = 0.0;
  for (int pass = 0;; ++pass) {
    const bool traced_pass = opts.trace && pass > 0 && pass % 2 == 0;
    const std::size_t dataset =
        opts.trace ? static_cast<std::size_t>(pass + 1) / 2
                   : static_cast<std::size_t>(pass);
    read_registries(cur, readings);
    setup_s.push_back(set_up(def, opts, dataset, traced_pass, cur));

    tracer.set_sample_every(traced_pass ? 1 : 0);
    Stopwatch timed;
    const std::uint64_t logical = backup_all(
        cur, outcome, traced_pass ? &spans : nullptr, report, log);
    const double seconds = timed.seconds();
    tracer.set_sample_every(0);

    const double mbps = mb(logical) / seconds;
    if (pass == 0) {
      report.set("cold_backup_mbps", mbps);
      continue;
    }
    (traced_pass ? mbps_traced : mbps_untraced).push_back(mbps);
    measured += seconds;
    if (!traced_pass) quality.add(cur.fleet->dedupe().report());
    if (traced_pass) read_backup_counters(*cur.fleet, readings);
    if (!opts.trace || traced_pass) {
      std::vector<SizeStrata> strata{
          SizeStrata(cur, 0, 0, kMaxSampleFileBytes)};
      order.clear();
      restore_files(setups, strata, sequence,
                    seconds * (1.0 - kBackupShare) / kBackupShare,
                    strata.front().files(),
                    traced_pass ? TracedRestores::kAll : TracedRestores::kNone,
                    outcome, untraced, traced, spans, readings, order);
    }
    if (pass >= kMinMeasuredPasses && measured >= opts.seconds * kBackupShare &&
        (!opts.trace || traced_pass)) {
      break;
    }
  }
  note_run(def, opts, *cur.fleet, report);
  report.note("backup passes, MB/s", join(mbps_untraced) +
                                         (opts.trace ? " untraced; " +
                                                           join(mbps_traced) +
                                                           " traced"
                                                     : ""));
  report.note("first backup",
              "pass 0 warms a fresh process up and is not timed into "
              "backup_mbps; it reads as cold_backup_mbps");
  report.set("backup_passes",
             static_cast<double>(mbps_untraced.size() + mbps_traced.size()));

  if (!opts.trace) {
    report.set("setup_s", median(setup_s));
    report.set("backup_mbps", median(mbps_untraced));
    quality.record(report);
    record_restore_metrics(untraced, report);
    return res;
  }
  finish_traced(def, opts, setups, order, readings, spans, "backup_mbps",
                median(mbps_untraced), median(mbps_traced), emitted_before,
                /*backup_table=*/true, res, log);
  return res;
}

// ---------------------------------------------------------------------------
// restore-linux
// ---------------------------------------------------------------------------

RunResult run_restore(const WorkloadDef& def, const Options& opts,
                      std::ostream& log) {
  RunResult res;
  Report& report = res.report;
  Outcome& outcome = res.outcome;
  const std::uint64_t emitted_before = spans_emitted();

  // Set-up, once per fleet: generate a dataset, start the fleet, back
  // everything up (untimed), and keep only the latest versions' input for
  // the comparison.
  std::vector<double> setup_s;
  std::vector<double> backup_mbps;
  QualitySamples quality;
  LayerReadings readings;
  readings.tcp = def.tcp_file_fleet;
  std::vector<Setup> setups(kRestoreSetups);
  for (std::size_t i = 0; i < setups.size(); ++i) {
    Setup& s = setups[i];
    Stopwatch setup;
    set_up(def, opts, i, opts.trace, s);
    Stopwatch timed;
    const std::uint64_t logical = backup_all(s, outcome, nullptr, report, log);
    backup_mbps.push_back(mb(logical) / timed.seconds());
    setup_s.push_back(setup.seconds());
    quality.add(s.fleet->dedupe().report());
    if (opts.trace) read_backup_counters(*s.fleet, readings);
    const std::size_t keep = std::min(kRestoreVersions, s.input.size());
    s.input.erase(s.input.begin(), s.input.end() - static_cast<long>(keep));
  }
  note_run(def, opts, *setups.back().fleet, report);
  report.note("set-up backups, MB/s", join(backup_mbps));

  // The timed part: the latest versions' files of every fleet, the fleets
  // taken in turn, each restore from the next size stratum of a seeded
  // sequence, over and over until the time is spent. Traced runs trace
  // every other restore.
  std::vector<SizeStrata> strata;
  for (std::size_t i = 0; i < setups.size(); ++i) {
    strata.emplace_back(setups[i], i, 0, ~0ull);
  }
  StrataSequence sequence(opts.seed);
  SpanLedger spans;
  RestoreSamples untraced;
  RestoreSamples traced;
  std::vector<FileRef> order;
  restore_files(setups, strata, sequence,
                opts.seconds * (opts.trace ? 1.0 - kReadChunkShare : 1.0),
                ~std::size_t{0},
                opts.trace ? TracedRestores::kEveryOther
                           : TracedRestores::kNone,
                outcome, untraced, traced, spans, readings, order);

  if (!opts.trace) {
    report.set("setup_s", median(setup_s));
    report.set("backup_mbps", median(backup_mbps));
    quality.record(report);
    record_restore_metrics(untraced, report);
    return res;
  }
  finish_traced(def, opts, setups, order, readings, spans, "restore_mbps",
                untraced.mbps(), traced.mbps(), emitted_before,
                /*backup_table=*/false, res, log);
  return res;
}

}  // namespace

// ---------------------------------------------------------------------------
// Definitions
// ---------------------------------------------------------------------------

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"backup-linux",
       "12 Linux-like versions, CDC-4KB, loopback, memory backend: DR ~7 and "
       "small files, so client chunking and SHA-1 bound it",
       InputKind::kLinux, ChunkingScheme::kCdc, false, false},
      {"backup-vm",
       "2 VM fulls, static 4KB, TCP + fsynced file backend, cache below the "
       "container count: wire, container put/fsync and index lookups work",
       InputKind::kVm, ChunkingScheme::kStatic, true, false},
      {"restore-linux",
       "restore the latest Linux versions from a TCP + file-backed fleet: "
       "ReadChunk and the container read path, no chunking or hashing",
       InputKind::kLinux, ChunkingScheme::kCdc, true, true},
  };
  return defs;
}

const WorkloadDef& find_workload(const std::string& name) {
  for (const WorkloadDef& d : workload_defs()) {
    if (name == d.name) return d;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string InputShape::describe() const {
  std::ostringstream os;
  os << versions << " versions, " << files << " files, " << logical_bytes
     << " logical bytes, " << chunks << " chunks";
  return os.str();
}

std::vector<ContentBackup> generate_input(const WorkloadDef& def,
                                          std::uint64_t seed, double scale) {
  if (def.input == InputKind::kLinux) {
    LinuxWorkloadConfig cfg = LinuxWorkloadConfig::scaled(scale);
    cfg.seed = seed;
    return LinuxGenerator(cfg).content();
  }
  VmWorkloadConfig cfg = VmWorkloadConfig::scaled(scale);
  cfg.seed = seed;
  return VmGenerator(cfg).content();
}

InputShape shape_of(const std::vector<ContentBackup>& input) {
  InputShape s;
  s.versions = input.size();
  for (const ContentBackup& v : input) {
    s.files += v.files.size();
    s.logical_bytes += v.logical_bytes();
  }
  return s;
}

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

Fleet::Fleet(const WorkloadDef& def, std::filesystem::path data_dir,
             obs::Registry* client_metrics)
    : data_dir_(std::move(data_dir)), client_metrics_(client_metrics) {
  MiddlewareConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.routing = RoutingScheme::kSigma;
  cfg.client.chunking = def.chunking;
  cfg.client.chunk_bytes = kChunkBytes;
  cfg.transport.pipeline_depth = kPipelineDepth;
  cfg.metrics = client_metrics;
  if (def.input == InputKind::kVm) {
    cfg.node.cache_capacity_containers = kVmCacheContainers;
  }
  if (def.tcp_file_fleet) {
    std::filesystem::remove_all(data_dir_);
    server::NodeServerConfig sc;
    sc.listen = {"127.0.0.1", 0};
    sc.num_nodes = kNodes;
    sc.node = cfg.node;
    sc.backend = server::BackendKind::kFile;
    sc.data_dir = data_dir_;
    sc.fsync = true;  // the daemon default
    server_ = std::make_unique<server::NodeServer>(sc);
    cfg.transport.mode = TransportMode::kTcp;
    for (std::size_t i = 0; i < kNodes; ++i) {
      cfg.transport.tcp_nodes.push_back(
          {{"127.0.0.1", server_->port()}, server_->endpoint(i)});
    }
  } else {
    cfg.transport.mode = TransportMode::kLoopback;
  }
  dedupe_ = std::make_unique<SigmaDedupe>(cfg);
}

Fleet::~Fleet() {
  dedupe_.reset();  // the client goes first: it holds connections
  server_.reset();
  if (!data_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
  }
}

DedupNode& Fleet::node(std::size_t i) {
  return server_ ? server_->node(i) : dedupe_->cluster().node(i);
}

obs::MetricsSnapshot Fleet::service_metrics() const {
  if (server_) return server_->metrics().snapshot();
  return client_metrics_ ? client_metrics_->snapshot() : obs::MetricsSnapshot{};
}

std::string Fleet::describe() const {
  std::ostringstream os;
  os << kNodes << " nodes, Sigma routing, "
     << to_string(dedupe_->config().client.chunking) << "-"
     << kChunkBytes / 1024 << "KB, pipeline depth " << kPipelineDepth << ", ";
  if (server_) {
    os << "TCP to an in-process NodeServer on 127.0.0.1:" << server_->port()
       << " (" << server_->reactors()
       << " reactors), file backend, fsync on (daemon default)";
  } else {
    os << "loopback transport, memory backend";
  }
  os << ", " << dedupe_->config().node.container_capacity_bytes / (1 << 20)
     << " MB containers";
  return os.str();
}

double checked_restore(const std::function<Buffer()>& restore,
                       const Buffer& expected, Outcome& outcome) {
  ++outcome.attempted;
  const auto start = std::chrono::steady_clock::now();
  Buffer got;
  try {
    got = restore();
  } catch (const std::exception&) {
    ++outcome.failed;
    return -1.0;
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (got != expected) {
    ++outcome.failed;
    return -1.0;
  }
  return ms;
}

RunResult run_workload(const Options& opts, std::ostream& log) {
  const WorkloadDef& def = find_workload(opts.workload);
  RunResult res = def.timed_restore ? run_restore(def, opts, log)
                                    : run_backup(def, opts, log);
  res.report.set("failed_ops_frac", res.outcome.failed_frac());
  res.report.set("peak_rss_mb", peak_rss_mb());
  return res;
}

}  // namespace perfbench

// The benchmark's workloads: seeded inputs, the fleet each one runs
// against, and the run that measures it. See perfbench/README.md for why
// each workload exists and which layer each per-layer metric belongs to.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sigma_dedupe.h"
#include "obs/metrics.h"
#include "report.h"
#include "server/node_server.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// File-backed fleets keep their node directories under here.
  std::filesystem::path work_dir = "perfbench-work";
  /// Input volume multiplier: 1 for the benchmark; its tests shrink it.
  double scale = 1.0;
};

enum class InputKind { kLinux, kVm };

struct WorkloadDef {
  const char* name;
  const char* why;
  InputKind input;
  sigma::ChunkingScheme chunking;
  /// True: the nodes run in an in-process NodeServer reached over TCP on
  /// 127.0.0.1, file backend with fsync. False: loopback transport,
  /// memory backend.
  bool tcp_file_fleet;
  /// restore-linux: the backup is set-up, the restore is measured.
  bool timed_restore;
};

const std::vector<WorkloadDef>& workload_defs();
/// Throws std::invalid_argument for an unknown name.
const WorkloadDef& find_workload(const std::string& name);

/// What a seed produced, printed so runs on two seeds can be compared.
struct InputShape {
  std::uint64_t versions = 0;
  std::uint64_t files = 0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t chunks = 0;

  bool operator==(const InputShape&) const = default;
  std::string describe() const;
};

/// The workload's backup versions, deterministic in `seed`.
std::vector<sigma::ContentBackup> generate_input(const WorkloadDef& def,
                                                 std::uint64_t seed,
                                                 double scale);

/// Versions, files and bytes of an input; chunks is left 0 (the backup
/// summaries fill it).
InputShape shape_of(const std::vector<sigma::ContentBackup>& input);

/// Fleet constants shared by every workload.
inline constexpr std::size_t kNodes = 8;
inline constexpr std::size_t kPipelineDepth = 4;
inline constexpr std::uint32_t kChunkBytes = 4096;
/// backup-vm's per-node fingerprint cache, in containers: below each
/// node's container count, so the workload does not fit the cache.
inline constexpr std::size_t kVmCacheContainers = 2;

/// One fleet and its client. A file-backed fleet keeps its node
/// directories under `data_dir` and deletes it on destruction.
class Fleet {
 public:
  Fleet(const WorkloadDef& def, std::filesystem::path data_dir,
        sigma::obs::Registry* client_metrics);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  sigma::SigmaDedupe& dedupe() { return *dedupe_; }
  sigma::DedupNode& node(std::size_t i);
  /// Where node services and backends record their instruments: the
  /// daemon's registry, or the client registry for a loopback fleet.
  sigma::obs::MetricsSnapshot service_metrics() const;
  std::string describe() const;

 private:
  std::filesystem::path data_dir_;
  sigma::obs::Registry* client_metrics_;
  std::unique_ptr<sigma::server::NodeServer> server_;
  std::unique_ptr<sigma::SigmaDedupe> dedupe_;
};

/// Run `restore`, compare its bytes with `expected` and count the
/// operation in `outcome`. Returns the latency in milliseconds, or a
/// negative value when the restore threw or returned other bytes.
double checked_restore(const std::function<sigma::Buffer()>& restore,
                       const sigma::Buffer& expected, Outcome& outcome);

struct RunResult {
  Report report;
  Outcome outcome;
};

/// Measure one workload for opts.seconds. Untraced runs record every
/// end-to-end metric, traced runs every per-layer metric; the text block
/// goes to `log`.
RunResult run_workload(const Options& opts, std::ostream& log);

}  // namespace perfbench

// The benchmark's own tests: every cataloged metric reaches the output
// with its unit, a corrupted restore counts as a failed operation, and a
// seed fixes the input shape. Workload runs here are shrunk (--scale) so
// the suite takes seconds.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kTestScale = 0.05;

/// Chunks the workload's chunker cuts the input into.
std::uint64_t count_chunks(const WorkloadDef& def,
                           const std::vector<sigma::ContentBackup>& input) {
  const auto chunker = sigma::make_chunker(def.chunking, kChunkBytes);
  std::uint64_t n = 0;
  for (const sigma::ContentBackup& v : input) {
    for (const sigma::ContentFile& f : v.files) {
      n += chunker->chunk(sigma::ByteView{f.data.data(), f.data.size()})
               .size();
    }
  }
  return n;
}

Options small_run(const std::string& workload, bool trace) {
  Options opts;
  opts.workload = workload;
  opts.seed = 7;
  opts.seconds = 0.3;
  opts.trace = trace;
  opts.work_dir = std::filesystem::current_path() / "perfbench-test-work";
  opts.scale = kTestScale;
  return opts;
}

class EveryWorkload
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(EveryWorkload, PrintsEveryMetricOfItsModeWithItsUnit) {
  const auto& [workload, trace] = GetParam();
  std::ostringstream log;
  const RunResult res = run_workload(small_run(workload, trace), log);
  EXPECT_TRUE(res.outcome.correct()) << log.str();
  EXPECT_GT(res.outcome.attempted, 0u);

  std::ostringstream text;
  res.report.print_text(text);
  const auto& catalog = trace ? per_layer_metrics() : end_to_end_metrics();
  const std::string json = res.report.json_line(catalog, res.outcome);
  for (const MetricDef& d : catalog) {
    EXPECT_NE(json.find("\"" + std::string(d.name) +
                        "\": {\"value\": "),
              std::string::npos)
        << d.name;
    EXPECT_NE(json.find("\"unit\": \"" + std::string(d.unit) + "\""),
              std::string::npos)
        << d.name;
    // The text block carries "name value unit" on one line.
    const auto at = text.str().find(std::string(d.name) + " ");
    ASSERT_NE(at, std::string::npos) << d.name;
    const auto eol = text.str().find('\n', at);
    EXPECT_NE(text.str().substr(at, eol - at).rfind(" " + std::string(d.unit)),
              std::string::npos)
        << d.name;
  }
  EXPECT_NE(text.str().find("# seed: 7"), std::string::npos);
  // Dataset 0 of a run is generated from the run's seed itself.
  EXPECT_NE(text.str().find("# dataset seed 7: "), std::string::npos);
  if (!trace) {
    for (const MetricDef& d : end_to_end_metrics()) {
      EXPECT_GT(res.report.get(d.name), 0.0) << d.name;
    }
    EXPECT_EQ(res.report.get("failed_ops_frac"), 0.0);
  } else {
    EXPECT_NE(log.str().find("bounded by: "), std::string::npos);
  }
  // File-backed fleets remove their node directories.
  const auto work = small_run(workload, trace).work_dir;
  if (std::filesystem::exists(work)) {
    EXPECT_TRUE(std::filesystem::is_empty(work));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EveryWorkload,
    ::testing::Combine(::testing::Values("backup-linux", "backup-vm",
                                         "restore-linux"),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(info.param) ? "_traced" : "_untraced");
    });

TEST(CheckedRestore, CorruptedBufferCountsAsFailure) {
  const WorkloadDef& def = find_workload("backup-linux");
  const auto input = generate_input(def, 3, kTestScale);
  Fleet fleet(def, {}, nullptr);
  const sigma::ContentBackup& v = input.front();
  fleet.dedupe().backup(v.session, v.files);
  fleet.dedupe().flush();
  const sigma::ContentFile& file = v.files.front();

  Outcome outcome;
  EXPECT_GE(checked_restore(
                [&] { return fleet.dedupe().restore(v.session, file.path); },
                file.data, outcome),
            0.0);
  EXPECT_EQ(outcome.attempted, 1u);
  EXPECT_EQ(outcome.failed, 0u);

  // The same restore with one byte flipped on its way out.
  EXPECT_LT(checked_restore(
                [&] {
                  sigma::Buffer b =
                      fleet.dedupe().restore(v.session, file.path);
                  b[b.size() / 2] ^= 0x01;
                  return b;
                },
                file.data, outcome),
            0.0);
  // A short buffer and a restore that throws fail too.
  EXPECT_LT(checked_restore(
                [&] {
                  sigma::Buffer b =
                      fleet.dedupe().restore(v.session, file.path);
                  b.pop_back();
                  return b;
                },
                file.data, outcome),
            0.0);
  EXPECT_LT(checked_restore(
                [&] {
                  return fleet.dedupe().restore(v.session, "no/such/file");
                },
                file.data, outcome),
            0.0);
  EXPECT_EQ(outcome.attempted, 4u);
  EXPECT_EQ(outcome.failed, 3u);
  EXPECT_FALSE(outcome.correct());
  EXPECT_DOUBLE_EQ(outcome.failed_frac(), 0.75);
}

TEST(InputShape, SameSeedSameShape) {
  for (const WorkloadDef& def : workload_defs()) {
    const auto a = generate_input(def, 42, kTestScale);
    const auto b = generate_input(def, 42, kTestScale);
    InputShape sa = shape_of(a);
    InputShape sb = shape_of(b);
    sa.chunks = count_chunks(def, a);
    sb.chunks = count_chunks(def, b);
    EXPECT_EQ(sa, sb) << def.name;
    EXPECT_GT(sa.logical_bytes, 0u);
    EXPECT_GT(sa.chunks, 0u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t v = 0; v < a.size(); ++v) {
      ASSERT_EQ(a[v].files.size(), b[v].files.size());
      for (std::size_t f = 0; f < a[v].files.size(); ++f) {
        EXPECT_EQ(a[v].files[f].data, b[v].files[f].data);
      }
    }
    // Another seed is other data.
    const auto c = generate_input(def, 43, kTestScale);
    EXPECT_NE(a.back().files.front().data, c.back().files.front().data)
        << def.name;
  }
}

TEST(Report, RefusesUncatalogedAndMissingMetrics) {
  Report report;
  EXPECT_THROW(report.set("no_such_metric", 1.0), std::logic_error);
  Outcome ok{1, 0};
  EXPECT_THROW(report.json_line(end_to_end_metrics(), ok), std::logic_error);
  for (const MetricDef& d : end_to_end_metrics()) report.set(d.name, 1.5);
  const std::string json = report.json_line(end_to_end_metrics(), ok);
  EXPECT_EQ(
      json.rfind("{\"correct\": true, \"attempted\": 1, \"failed\": 0", 0),
      0u);
  EXPECT_EQ(json.back(), '}');
}

TEST(Stats, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  // Whole-number readings spread over the unit interval around each.
  EXPECT_DOUBLE_EQ(grouped_quantile({1, 1, 1, 1}, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(grouped_quantile({1, 1, 2, 2}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(grouped_quantile({1, 1, 1, 2}, 0.5), 1.1666666666666667);
}

}  // namespace
}  // namespace perfbench

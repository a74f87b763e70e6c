// Metric catalog and output of the backup/restore benchmark.
//
// Every metric perfbench can print is declared once here with its unit;
// Report::set() refuses a name the catalog does not know, so a metric can
// never be printed without its unit or under a second spelling. A run
// ends with one JSON line carrying exactly the catalog of its mode: the
// end-to-end metrics for an untraced run, the per-layer metrics for a
// traced one.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// What a user of the system sees; printed by every untraced run. All of
/// them are nonzero on a correct run.
const std::vector<MetricDef>& end_to_end_metrics();

/// One layer each; printed by every traced run.
const std::vector<MetricDef>& per_layer_metrics();

/// Printed in the text block only (zero on a correct run, or a count that
/// qualifies another metric).
const std::vector<MetricDef>& info_metrics();

/// Unit of a cataloged metric; throws std::logic_error for an unknown name.
const char* unit_of(const std::string& name);

/// Operations counted against the run. One operation is one backup
/// session or one file restore; a restore fails when it throws or its
/// bytes differ from the generated input.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return attempted > 0 && failed == 0; }
  double failed_frac() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

class Report {
 public:
  /// Record a cataloged metric (replaces an earlier value).
  void set(const std::string& name, double value);
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  double get(const std::string& name) const { return values_.at(name); }

  /// A free-form line of the text block (seed, input shape, sizes).
  void note(const std::string& key, const std::string& value);

  /// Notes, then every recorded metric as "name value unit".
  void print_text(std::ostream& os) const;

  /// The result line: correct/attempted/failed and the metrics of
  /// `catalog`. Throws std::logic_error when one of them was not recorded
  /// or is not a finite number.
  std::string json_line(const std::vector<MetricDef>& catalog,
                        const Outcome& outcome) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);

/// The p-quantile (p in [0, 1]) by linear interpolation between order
/// statistics (0 for an empty sample).
double quantile(std::vector<double> v, double p);

/// The p-quantile of whole-number readings (microsecond spans), each
/// taken to stand for the unit interval around it: linear interpolation
/// inside the group of equal readings that holds rank p * n. Unlike
/// quantile(), it does not stick to one whole number from run to run.
double grouped_quantile(std::vector<double> v, double p);

struct WeightedSample {
  double value;
  double weight;
};

/// The p-quantile of a weighted sample: each value sits at the midpoint
/// of its share of the total weight, and p interpolates linearly between
/// neighbours (0 for an empty sample).
double weighted_quantile(std::vector<WeightedSample> v, double p);

/// Full-precision decimal rendering of a finite double.
std::string format_number(double v);

}  // namespace perfbench

// Shared infrastructure for the reproduction benchmarks (bench/): suite
// loading, the paper's measurement protocol (median of 3), normalized
// "higher is worse" ratio tables with geometric-mean footers, CSV output,
// and machine-readable JSON run reports (--report, see obs/report.h).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "graph/graph.h"

namespace ecl::harness {

/// Configuration shared by all bench binaries, parsed from the common flags
///   --scale=<f>       vertex-count multiplier on the suite defaults
///   --reps=<n>        repetitions per measurement (median reported)
///   --graphs=a,b      run only the named suite graphs
///   --small           run the reduced 5-graph suite
///   --csv-dir=<d>     also write each table as CSV into <d> (created if missing)
///   --report=<f.json> write a machine-readable run report (raw per-rep
///                     times, metrics snapshot, host metadata) to <f.json>
struct BenchConfig {
  double scale = 1.0;
  int reps = 3;
  std::vector<std::string> graph_filter;  // empty = full suite
  std::string csv_dir;
  std::string report_path;
};

/// Parses the common flags; `default_scale` lets expensive benches default
/// to smaller inputs. Warns on unknown flags.
[[nodiscard]] BenchConfig parse_config(int argc, const char* const* argv,
                                       double default_scale = 1.0);

/// Builds the configured subset of the 18-graph suite (in Table 2 order).
[[nodiscard]] std::vector<std::pair<std::string, Graph>> load_suite(const BenchConfig& cfg);

/// Prints `table` as markdown to stdout and, if csv_dir is set, writes
/// <csv_dir>/<csv_name>.csv (creating csv_dir if missing). If report_path is
/// set, (re)writes the accumulated run report there as well, so the report
/// on disk is complete after every emitted table.
void emit(const Table& table, const BenchConfig& cfg, const std::string& csv_name);

/// One timed cell: every repetition's wall-clock time plus the summary
/// statistics the tables and reports need.
struct Measurement {
  std::vector<double> rep_ms;  // raw per-repetition times, in run order
  double min_ms = 0.0;
  double median_ms = 0.0;
  double max_ms = 0.0;
};

/// Runs `fn` cfg.reps times (>= 1) and returns all repetition times with
/// min/median/max, so callers can report run-to-run spread instead of
/// discarding everything but the median.
[[nodiscard]] Measurement measure(const BenchConfig& cfg, const std::function<void()>& fn);

/// measure() + record the raw repetition times into the run report under
/// (graph, code) when --report is active. Returns the median, which is what
/// the paper's tables use.
double measure_cell(const BenchConfig& cfg, const std::string& graph,
                    const std::string& code, const std::function<void()>& fn);

/// Records externally obtained per-rep times (e.g. the simulator's modeled
/// kernel times, which are not wall-clock measured) into the run report.
void record_cell(const BenchConfig& cfg, const std::string& graph, const std::string& code,
                 std::vector<double> rep_ms);

/// Builder for the paper's normalized figures: rows are graphs, columns are
/// codes, cells are runtime relative to the reference code (> 1 = slower,
/// the paper's "higher is worse"), and the footer row is the geometric mean
/// over the graphs each code completed.
class RatioTable {
 public:
  /// `reference` is the code every column is normalized to (ECL-CC).
  RatioTable(std::string caption, std::string reference_name,
             std::vector<std::string> code_names);

  /// Records the absolute runtime of `code` on `graph`; use nullopt for
  /// "n/a" (unsupported input).
  void record(const std::string& graph, const std::string& code,
              std::optional<double> runtime_ms);

  /// The normalized figure table.
  [[nodiscard]] Table normalized() const;

  /// The companion absolute-runtime table (paper Tables 5-10), in ms.
  [[nodiscard]] Table absolute(const std::string& caption) const;

  /// Geometric-mean slowdown of `code` vs the reference (over the graphs
  /// where both ran).
  [[nodiscard]] std::optional<double> geomean(const std::string& code) const;

 private:
  struct Cell {
    std::optional<double> ms;
  };
  [[nodiscard]] std::size_t code_index(const std::string& code) const;

  std::string caption_;
  std::string reference_;
  std::vector<std::string> codes_;
  std::vector<std::string> graphs_;                // row order
  std::vector<std::vector<Cell>> cells_;           // [graph][code]
};

}  // namespace ecl::harness

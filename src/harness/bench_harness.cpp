#include "harness/bench_harness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "common/stats.h"
#include "graph/suite.h"
#include "obs/report.h"

namespace ecl::harness {

BenchConfig parse_config(int argc, const char* const* argv, double default_scale) {
  CliArgs args(argc, argv);
  BenchConfig cfg;
  cfg.scale = args.get_double("scale", default_scale);
  cfg.reps = static_cast<int>(args.get_int("reps", 3));
  cfg.csv_dir = args.get("csv-dir", "");
  cfg.report_path = args.get("report", "");
  if (args.has("small")) {
    cfg.graph_filter = small_suite_names();
  }
  const std::string list = args.get("graphs", "");
  if (!list.empty()) {
    cfg.graph_filter.clear();
    std::istringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) cfg.graph_filter.push_back(item);
    }
  }
  for (const auto& flag : args.unused()) {
    std::cerr << "warning: unknown flag --" << flag << " (ignored)\n";
  }
  return cfg;
}

std::vector<std::pair<std::string, Graph>> load_suite(const BenchConfig& cfg) {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const auto& name : suite_names()) {
    if (!cfg.graph_filter.empty() &&
        std::find(cfg.graph_filter.begin(), cfg.graph_filter.end(), name) ==
            cfg.graph_filter.end()) {
      continue;
    }
    graphs.emplace_back(name, make_suite_graph(name, cfg.scale));
  }
  return graphs;
}

void emit(const Table& table, const BenchConfig& cfg, const std::string& csv_name) {
  table.write_markdown(std::cout);
  if (!cfg.csv_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cfg.csv_dir, ec);
    if (ec) {
      std::cerr << "warning: could not create " << cfg.csv_dir << ": " << ec.message()
                << "\n";
    }
    const std::string path = cfg.csv_dir + "/" + csv_name + ".csv";
    if (!table.save_csv(path)) {
      std::cerr << "warning: could not write " << path << "\n";
    }
  }
  if (!cfg.report_path.empty()) {
    // Rewrite the accumulated report on every emit: the first emit names the
    // bench, later emits refresh the cells and metrics snapshot, and the
    // file on disk is valid even if the bench stops between tables.
    obs::run_report().set_bench_name(csv_name);
    obs::run_report().set_config(cfg.scale, cfg.reps);
    if (!obs::run_report().write_file(cfg.report_path)) {
      std::cerr << "warning: could not write " << cfg.report_path << "\n";
    }
  }
}

Measurement measure(const BenchConfig& cfg, const std::function<void()>& fn) {
  const int reps = std::max(1, cfg.reps);
  Measurement m;
  m.rep_ms.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    m.rep_ms.push_back(t.millis());
  }
  m.min_ms = minimum(m.rep_ms);
  m.median_ms = median(m.rep_ms);
  m.max_ms = maximum(m.rep_ms);
  return m;
}

double measure_cell(const BenchConfig& cfg, const std::string& graph,
                    const std::string& code, const std::function<void()>& fn) {
  Measurement m = measure(cfg, fn);
  record_cell(cfg, graph, code, std::move(m.rep_ms));
  return m.median_ms;
}

void record_cell(const BenchConfig& cfg, const std::string& graph, const std::string& code,
                 std::vector<double> rep_ms) {
  if (cfg.report_path.empty()) return;
  obs::run_report().add_cell(graph, code, std::move(rep_ms));
}

RatioTable::RatioTable(std::string caption, std::string reference_name,
                       std::vector<std::string> code_names)
    : caption_(std::move(caption)),
      reference_(std::move(reference_name)),
      codes_(std::move(code_names)) {}

std::size_t RatioTable::code_index(const std::string& code) const {
  const auto it = std::find(codes_.begin(), codes_.end(), code);
  if (it == codes_.end()) {
    std::fprintf(stderr, "RatioTable: unknown code '%s'\n", code.c_str());
    std::abort();
  }
  return static_cast<std::size_t>(it - codes_.begin());
}

void RatioTable::record(const std::string& graph, const std::string& code,
                        std::optional<double> runtime_ms) {
  auto row = std::find(graphs_.begin(), graphs_.end(), graph);
  if (row == graphs_.end()) {
    graphs_.push_back(graph);
    cells_.emplace_back(codes_.size());
    row = graphs_.end() - 1;
  }
  cells_[static_cast<std::size_t>(row - graphs_.begin())][code_index(code)].ms = runtime_ms;
}

Table RatioTable::normalized() const {
  Table t(caption_);
  std::vector<std::string> header{"Graph"};
  for (const auto& code : codes_) header.push_back(code);
  t.set_header(std::move(header));

  const std::size_t ref = code_index(reference_);
  for (std::size_t r = 0; r < graphs_.size(); ++r) {
    std::vector<std::string> row{graphs_[r]};
    const auto& base = cells_[r][ref].ms;
    for (std::size_t c = 0; c < codes_.size(); ++c) {
      const auto& ms = cells_[r][c].ms;
      if (!ms || !base || *base <= 0.0) {
        row.push_back("n/a");
      } else {
        row.push_back(Table::fmt(*ms / *base, 2));
      }
    }
    t.add_row(std::move(row));
  }

  std::vector<std::string> footer{"geometric mean"};
  for (const auto& code : codes_) {
    const auto gm = geomean(code);
    footer.push_back(gm ? Table::fmt(*gm, 2) : "n/a");
  }
  t.add_row(std::move(footer));
  return t;
}

Table RatioTable::absolute(const std::string& caption) const {
  Table t(caption);
  std::vector<std::string> header{"Graph"};
  for (const auto& code : codes_) header.push_back(code);
  t.set_header(std::move(header));
  for (std::size_t r = 0; r < graphs_.size(); ++r) {
    std::vector<std::string> row{graphs_[r]};
    for (std::size_t c = 0; c < codes_.size(); ++c) {
      const auto& ms = cells_[r][c].ms;
      row.push_back(ms ? Table::fmt(*ms, *ms < 10 ? 2 : 1) : "n/a");
    }
    t.add_row(std::move(row));
  }
  return t;
}

std::optional<double> RatioTable::geomean(const std::string& code) const {
  const std::size_t ref = code_index(reference_);
  const std::size_t c = code_index(code);
  std::vector<double> ratios;
  for (std::size_t r = 0; r < graphs_.size(); ++r) {
    const auto& base = cells_[r][ref].ms;
    const auto& ms = cells_[r][c].ms;
    if (base && ms && *base > 0.0 && *ms > 0.0) {
      ratios.push_back(*ms / *base);
    }
  }
  if (ratios.empty()) return std::nullopt;
  return geometric_mean(ratios);
}

}  // namespace ecl::harness

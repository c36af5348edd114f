// ecl::obs run reports — machine-readable JSON perf artifacts.
//
// A RunReport captures one benchmark invocation: per (graph, code) cell the
// *raw* per-repetition wall-clock times (the spread the median-only tables
// discard), plus a final metrics-registry snapshot and build/host metadata.
// bench_harness wires this to the --report=<file.json> flag, so every
// reproduction binary can emit a BENCH_*.json the repo's perf trajectory can
// be tracked (and CI-validated) from.
//
// Schema (schema_version 1):
//   {
//     "schema_version": 1,
//     "bench": "<binary name>",
//     "config": {"scale": 0.5, "reps": 3},
//     "metadata": {"compiler": "...", "build_type": "...", "hostname": "...",
//                  "hardware_threads": 8, "timestamp_utc": "..."},
//     "cells": [{"graph": "...", "code": "...",
//                "rep_ms": [..], "min_ms": .., "median_ms": .., "max_ms": ..,
//                "<extra name>": .., ...}],
//     "metrics": [{"name": "...", "kind": "counter", "count": 123} |
//                 {"name": "...", "kind": "gauge", "value": 1.5} |
//                 {"name": "...", "kind": "histogram", "count": .., "sum": ..,
//                  "max": .., "average": .., "p50": .., "p95": .., "p99": ..,
//                  "buckets": [{"le": .., "count": ..}]}]
//   }
// See docs/OBSERVABILITY.md for the full field reference.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace ecl::obs {

struct ReportCell {
  std::string graph;
  std::string code;
  std::vector<double> rep_ms;  // raw per-repetition times, in run order
  // Further named per-cell values, written after max_ms (e.g.
  // recovery_time's load_ms).
  std::vector<std::pair<std::string, double>> extra;
};

class RunReport {
 public:
  /// First non-empty name wins (benches may emit several tables).
  void set_bench_name(const std::string& name);
  void set_config(double scale, int reps);

  void add_cell(std::string graph, std::string code, std::vector<double> rep_ms,
                std::vector<std::pair<std::string, double>> extra = {});

  /// Serializes the report (including the current metrics-registry snapshot
  /// and host metadata) to `os`.
  void write(std::ostream& os) const;

  /// write() to `path`, creating parent directories. Returns false if the
  /// file could not be written.
  bool write_file(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::string bench_name_;
  double scale_ = 1.0;
  int reps_ = 0;
  std::vector<ReportCell> cells_;
};

/// The process-wide report instance the bench harness records into.
RunReport& run_report();

}  // namespace ecl::obs

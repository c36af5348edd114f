// Overhead check for the ecl::obs record sites (docs/OBSERVABILITY.md).
//
// This translation unit is compiled into TWO executables: obs_overhead_on
// (default build, metrics + span record sites live) and obs_overhead_off
// (compiled with ECL_OBS_DISABLED, every record site a no-op). Both compile
// src/core/ecl_cc.cpp directly instead of linking ecl_core so the flag
// reaches the algorithm's record sites; the obs classes themselves are
// flag-invariant, so mixing with the normal ecl_obs library is ODR-safe.
//
// scripts/check_obs_overhead.py runs both binaries and asserts that the
// instrumented build's ECL-CC median stays within the acceptance threshold
// of the disabled build, and that both produce identical label checksums.
//
// --exporter additionally runs the timed loop with the full live-telemetry
// stack hot: the metrics exporter thread sampling the registry on a fast
// cadence plus the tracer recording spans. The <=5% budget must hold with
// both enabled (the obs_overhead_exporter_check ctest). In the
// ECL_OBS_DISABLED build the flag is accepted and ignored, because the
// checker passes identical extra args to both binaries.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/stats.h"
#include "common/timer.h"
#include "core/ecl_cc.h"
#include "graph/suite.h"
#include "harness/bench_harness.h"
#include "obs/exporter.h"
#include "obs/trace.h"

int main(int argc, char** argv) {
  using namespace ecl;
  // Strip --exporter before the harness parse so it isn't warned about as
  // unknown; both builds accept it, only the instrumented one acts on it.
  bool with_exporter = false;
  std::vector<const char*> filtered;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--exporter") {
      with_exporter = true;
      continue;
    }
    filtered.push_back(argv[i]);
  }
  const auto cfg = harness::parse_config(static_cast<int>(filtered.size()),
                                         filtered.data(), /*default_scale=*/0.5);
  const auto names = small_suite_names();

#if defined(ECL_OBS_DISABLED)
  (void)with_exporter;  // record sites are compiled out; nothing to exercise
#else
  obs::ExporterOptions eopts;
  eopts.port = 0;  // ephemeral; nothing scrapes it
  obs::MetricsExporter exporter(eopts);
  std::string trace_path;
  if (with_exporter) {
    std::string err;
    if (!exporter.start(&err)) {
      std::fprintf(stderr, "error: cannot start exporter: %s\n", err.c_str());
      return 1;
    }
    trace_path = (std::filesystem::temp_directory_path() /
                  "ecl_obs_overhead_trace.json").string();
    if (!obs::Tracer::instance().start(trace_path)) {
      std::fprintf(stderr, "error: cannot start tracer\n");
      return 1;
    }
  }
#endif

  // FNV-1a over every label of every graph: any behavioural difference
  // between the instrumented and compiled-out builds shows up here.
  std::uint64_t checksum = 14695981039346656037ULL;
  std::vector<double> totals;  // per-rep total ms across the whole small suite

  std::vector<Graph> graphs;
  for (const auto& name : names) graphs.push_back(make_suite_graph(name, cfg.scale));

  // Timed with the serial code (ECL-CCser): it exercises the same record
  // sites (phase spans, ComputeStats find/hook accounting, registry flush)
  // as the OpenMP port but without scheduler jitter, which would otherwise
  // swamp a 5% threshold. The OpenMP port is still run once per rep so its
  // record sites execute and its labels enter the checksum.
  const int reps = std::max(3, cfg.reps);
  for (int r = 0; r < reps; ++r) {
    Timer t;
    for (const auto& g : graphs) {
      const auto labels = ecl_cc_serial(g);
      if (r == 0) {
        for (const vertex_t l : labels) {
          checksum = (checksum ^ l) * 1099511628211ULL;
        }
      }
    }
    totals.push_back(t.millis());
    for (const auto& g : graphs) {
      const auto labels = ecl_cc_omp(g);
      if (r == 0) {
        for (const vertex_t l : labels) {
          checksum = (checksum ^ l) * 1099511628211ULL;
        }
      }
    }
  }

#if defined(ECL_OBS_DISABLED)
  std::printf("obs=disabled\n");
#else
  if (with_exporter) {
    exporter.stop();
    obs::Tracer::instance().stop();
    std::error_code ec;
    std::filesystem::remove(trace_path, ec);
  }
  std::printf("obs=enabled\n");
  std::printf("exporter=%s\n", with_exporter ? "on" : "off");
#endif
  std::printf("median_ms=%.6f\n", median(totals));
  std::printf("labels_checksum=%016llx\n", static_cast<unsigned long long>(checksum));
  return 0;
}

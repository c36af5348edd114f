// recovery_time — restart-to-ready vs ingest history, with and without
// checkpoints (ISSUE 4 acceptance: bounded crash recovery).
//
// For each history size H (base edges x 1, 2, 5, 10) and each durability
// mode (wal-only, wal+checkpoint) the bench:
//
//   1. builds a ConnectivityService in a fresh directory, streams H random
//      edges through submit(), compacts, and (checkpoint mode) writes a
//      checkpoint, then stops;
//   2. times the *restart*: constructing a new service on the same on-disk
//      state, i.e. checkpoint load + WAL tail replay (+ the synchronous
//      initial compaction the no-checkpoint path needs). Ready means
//      queries answer from a snapshot covering every acked edge.
//
// With checkpoints the restart cost is O(n + tail) and stays flat as H
// grows; without them it replays and re-solves the whole history, growing
// linearly. --report= writes the cells as JSON (cell graph = "history_<H>",
// code = mode, rep_ms = restart times) for the CI artifact; each wal+ckpt
// cell also carries load_ms, the mean checkpoint load (mapping plus checks)
// per restart in ms, read from the ecl.svc.ckpt.load_us histogram.
//
//   $ recovery_time --vertices=200000 --base-edges=200000 --reps=3 \
//       --report=recovery_time.json
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "svc/service.h"

namespace {

using ecl::svc::Admission;
using ecl::svc::ConnectivityService;
using ecl::svc::ServiceOptions;

struct ModeResult {
  double restart_ms = 0;
  double load_ms = 0;  // ecl.svc.ckpt.load_us recorded during the restart, in ms
  std::uint64_t watermark = 0;
  std::uint64_t wal_bytes = 0;
};

ServiceOptions make_opts(const std::string& dir, bool checkpoints) {
  ServiceOptions opts;
  opts.wal_path = dir + "/wal";
  opts.wal.fsync_policy = ecl::svc::FsyncPolicy::kNone;  // measuring recovery, not ingest
  if (checkpoints) {
    opts.checkpoint_path = dir + "/ckpt";
    opts.checkpoint_interval_ms = 0;  // explicit checkpoint_now() only
  }
  return opts;
}

void ingest_history(ConnectivityService& svc, ecl::vertex_t n, std::uint64_t edges,
                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> pick(0, n - 1);
  std::vector<ecl::Edge> batch;
  const std::size_t batch_size = 1000;
  for (std::uint64_t i = 0; i < edges; ++i) {
    batch.emplace_back(pick(rng), pick(rng));
    if (batch.size() == batch_size || i + 1 == edges) {
      while (svc.submit(batch) == Admission::kShed) {
        usleep(500);  // bounded queue: wait out backpressure
      }
      batch.clear();
    }
  }
  (void)svc.compact_now();
}

ModeResult run_mode(const std::string& dir, ecl::vertex_t n, std::uint64_t edges,
                    bool checkpoints) {
  {
    ConnectivityService svc(n, make_opts(dir, checkpoints));
    ingest_history(svc, n, edges, /*seed=*/42);
    if (checkpoints && !svc.checkpoint_now()) {
      std::fprintf(stderr, "error: checkpoint_now failed\n");
      std::exit(1);
    }
    svc.stop();
  }
  ModeResult r;
  const auto& load_us = ecl::obs::registry().histogram(
      "ecl.svc.ckpt.load_us", ecl::obs::Histogram::pow2_bounds(22));
  const std::uint64_t load_us_before = load_us.sum();
  ecl::Timer t;
  ConnectivityService revived(n, make_opts(dir, checkpoints));
  r.restart_ms = t.millis();
  r.load_ms = static_cast<double>(load_us.sum() - load_us_before) / 1000;
  const auto stats = revived.stats();
  r.watermark = stats.watermark;
  r.wal_bytes = stats.wal_bytes;
  if (stats.watermark < edges) {
    std::fprintf(stderr, "error: revived watermark %llu < history %llu\n",
                 static_cast<unsigned long long>(stats.watermark),
                 static_cast<unsigned long long>(edges));
    std::exit(1);
  }
  revived.stop();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ecl::CliArgs args(argc, argv);
  const auto n = static_cast<ecl::vertex_t>(args.get_int("vertices", 200000));
  const auto base = static_cast<std::uint64_t>(args.get_int("base-edges", 200000));
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const std::string report_file = args.get("report", "");
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", flag.c_str());
  }

  const std::uint64_t factors[] = {1, 2, 5, 10};
  std::printf("%-14s %-10s %12s %14s %12s\n", "history", "mode", "restart_ms",
              "watermark", "wal_bytes");
  for (const std::uint64_t f : factors) {
    const std::uint64_t edges = base * f;
    for (const bool ckpt : {false, true}) {
      const char* mode = ckpt ? "wal+ckpt" : "wal-only";
      std::vector<double> rep_ms;
      double load_ms = 0;
      ModeResult last;
      for (int rep = 0; rep < reps; ++rep) {
        char tmpl[] = "/tmp/ecl_recovery_XXXXXX";
        if (::mkdtemp(tmpl) == nullptr) {
          std::fprintf(stderr, "error: mkdtemp failed\n");
          return 1;
        }
        const std::string dir = tmpl;
        last = run_mode(dir, n, edges, ckpt);
        rep_ms.push_back(last.restart_ms);
        load_ms += last.load_ms / reps;
        std::system(("rm -rf " + dir).c_str());
      }
      std::printf("%-14llu %-10s %12.2f %14llu %12llu\n",
                  static_cast<unsigned long long>(edges), mode, rep_ms.back(),
                  static_cast<unsigned long long>(last.watermark),
                  static_cast<unsigned long long>(last.wal_bytes));
      std::fflush(stdout);
      std::vector<std::pair<std::string, double>> extra;
      if (ckpt) extra.emplace_back("load_ms", load_ms);
      ecl::obs::run_report().add_cell("history_" + std::to_string(edges), mode,
                                      rep_ms, std::move(extra));
    }
  }

  if (!report_file.empty()) {
    ecl::obs::run_report().set_bench_name("recovery_time");
    ecl::obs::run_report().set_config(static_cast<double>(base), reps);
    if (!ecl::obs::run_report().write_file(report_file)) {
      std::fprintf(stderr, "error: cannot write report to %s\n", report_file.c_str());
      return 1;
    }
  }
  return 0;
}

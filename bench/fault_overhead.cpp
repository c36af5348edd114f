// Overhead check for the ecl::fault injection points (docs/ROBUSTNESS.md).
//
// This translation unit is compiled into TWO executables: fault_overhead_on
// (default build, every fault point a relaxed atomic load while disarmed)
// and fault_overhead_off (ECL_FAULT_DISABLED, every point a compile-time
// constant). Both compile src/svc/{service,net,wal}.cpp directly instead of
// linking ecl_svc so the flag reaches the service's fault points; the fault
// Registry class itself is flag-invariant, so mixing with the normal
// ecl_fault library is ODR-safe.
//
// The workload walks the three fault-point-bearing hot paths: ingest
// (svc.ingest.worker, svc.wal.append per batch), snapshot connectivity
// queries after a compaction covering every batch (no points — the read
// path must stay free; the snapshot makes the answers, and so the checksum,
// deterministic), and socketpair frame echo
// (svc.net.read / svc.net.write per I/O call). scripts/check_obs_overhead.py
// gates the instrumented build at +5% (plus a 2 ms absolute epsilon) and
// requires identical checksums from both builds.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/stats.h"
#include "common/timer.h"
#include "svc/net.h"
#include "svc/service.h"

int main(int argc, char** argv) {
  using namespace ecl;
  CliArgs args(argc, argv);
  const double scale = args.get_double("scale", 0.5);
  const int reps = std::max(3, static_cast<int>(args.get_int("reps", 5)));

  const auto vertices = static_cast<vertex_t>(4096.0 * scale) + 64;
  const auto batches = static_cast<std::size_t>(256.0 * scale) + 16;
  const auto queries = static_cast<std::size_t>(20000.0 * scale);
  const auto frames = static_cast<std::size_t>(20000.0 * scale);

  std::uint64_t checksum = 14695981039346656037ULL;  // FNV-1a
  const auto fold = [&checksum](std::uint64_t x) {
    checksum = (checksum ^ x) * 1099511628211ULL;
  };
  std::vector<double> totals;

  const std::string wal_path =
      "/tmp/ecl_fault_overhead_" + std::to_string(::getpid()) + ".wal";

  for (int r = 0; r < reps; ++r) {
    std::remove(wal_path.c_str());
    svc::ServiceOptions opts;
    opts.wal_path = wal_path;  // svc.wal.append runs on every submit
    opts.wal.fsync_policy = svc::FsyncPolicy::kNone;
    svc::ConnectivityService service(vertices, opts);

    int pair[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
      std::fprintf(stderr, "socketpair failed\n");
      return 1;
    }
    std::vector<std::uint8_t> frame = {64, 0, 0, 0};  // u32 len = 64
    frame.resize(4 + 64, 0xab);
    std::vector<std::uint8_t> payload;

    // Deterministic edge/query stream (same for both builds, every rep).
    std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
    const auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };

    Timer t;
    for (std::size_t b = 0; b < batches; ++b) {
      svc::ConnectivityService::EdgeBatch batch;
      batch.reserve(64);
      for (int e = 0; e < 64; ++e) {
        batch.emplace_back(static_cast<vertex_t>(next() % vertices),
                           static_cast<vertex_t>(next() % vertices));
      }
      while (service.submit(batch) == svc::Admission::kShed) {
        service.flush();  // closed loop: drain instead of dropping work
      }
    }
    (void)service.compact_now();  // flushes first
    for (std::size_t q = 0; q < queries; ++q) {
      const auto u = static_cast<vertex_t>(next() % vertices);
      const auto v = static_cast<vertex_t>(next() % vertices);
      fold(service.connected(u, v, svc::ReadMode::kSnapshot) ? 1 : 0);
    }
    for (std::size_t f = 0; f < frames; ++f) {
      if (!svc::net::write_frame(pair[0], frame) ||
          !svc::net::read_frame(pair[1], payload)) {
        std::fprintf(stderr, "frame echo failed\n");
        return 1;
      }
      fold(payload.size());
    }
    totals.push_back(t.millis());

    ::close(pair[0]);
    ::close(pair[1]);
    service.stop();
    std::remove(wal_path.c_str());
  }

#if defined(ECL_FAULT_DISABLED)
  std::printf("fault=disabled\n");
#else
  std::printf("fault=enabled\n");
#endif
  std::printf("median_ms=%.6f\n", median(totals));
  std::printf("labels_checksum=%016llx\n", static_cast<unsigned long long>(checksum));
  return 0;
}

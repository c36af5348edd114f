// Streaming connectivity on a growing social network, driven through the
// ecl::svc ConnectivityService in-process: friendship batches are submitted
// through the bounded admission queue (retrying on backpressure shed), a
// background thread compacts epoch snapshots from the roots the ingest
// worker hooked, and queries are answered from the latest epoch snapshot
// (canonical labels, current once compact_now() returns).
//
//   $ ./social_stream [--users=N] [--batches=N] [--seed=N]
//
// Friendships arrive in batches; after each batch the example reports how
// the community structure consolidates (number of communities, share of
// users in the giant component) and answers connectivity queries without
// ever recomputing from scratch.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "svc/service.h"

int main(int argc, char** argv) {
  using namespace ecl;
  CliArgs args(argc, argv);
  const auto users = static_cast<vertex_t>(args.get_int("users", 100000));
  const auto batches = static_cast<int>(args.get_int("batches", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));

  // Generate a friendship network and replay its edges as a stream in
  // arrival (vertex-creation) order.
  const Graph network = gen_preferential_attachment(users, 5, seed);
  std::vector<Edge> stream;
  stream.reserve(network.num_edges() / 2);
  for (vertex_t v = 0; v < users; ++v) {
    for (const vertex_t u : network.neighbors(v)) {
      if (u < v) stream.emplace_back(v, u);
    }
  }
  std::sort(stream.begin(), stream.end());  // arrival order: by newer user

  svc::ServiceOptions opts;
  opts.queue_capacity = 32;
  svc::ConnectivityService service(users, opts);
  Xoshiro256 rng(seed);
  const std::size_t batch_size = (stream.size() + batches - 1) / batches;

  std::printf("streaming %zu friendships over %d batches into a %u-user network\n\n",
              stream.size(), batches, users);
  std::printf("%8s %14s %12s %14s %16s\n", "batch", "edges so far", "epoch",
              "communities", "giant component");

  std::size_t consumed = 0;
  std::uint64_t sheds = 0;
  for (int b = 0; b < batches; ++b) {
    const std::size_t end = std::min(stream.size(), consumed + batch_size);
    // Submit in service-sized chunks; a shed is backpressure, not an error —
    // retry after yielding to the ingest worker.
    constexpr std::size_t kChunk = 4096;
    while (consumed < end) {
      const std::size_t n = std::min(kChunk, end - consumed);
      svc::ConnectivityService::EdgeBatch chunk(stream.begin() + consumed,
                                                stream.begin() + consumed + n);
      while (service.submit(chunk) == svc::Admission::kShed) {
        ++sheds;
        std::this_thread::yield();
      }
      consumed += n;
    }

    // Force an epoch covering everything submitted so far, then census the
    // snapshot's canonical labels.
    service.compact_now();
    const svc::SnapshotPtr snap = service.snapshot();
    std::unordered_map<vertex_t, vertex_t> sizes;
    for (const vertex_t l : snap->labels) ++sizes[l];
    vertex_t giant = 0;
    for (const auto& [label, size] : sizes) giant = std::max(giant, size);
    std::printf("%8d %14zu %12llu %14zu %14.1f%%\n", b + 1, consumed,
                static_cast<unsigned long long>(snap->epoch), sizes.size(),
                100.0 * static_cast<double>(giant) / static_cast<double>(users));
  }

  std::printf("\nsnapshot connectivity queries (no recomputation):\n");
  for (int q = 0; q < 5; ++q) {
    const auto a = static_cast<vertex_t>(rng.bounded(users));
    const auto b = static_cast<vertex_t>(rng.bounded(users));
    std::printf("  user %6u and user %6u: %s\n", a, b,
                service.connected(a, b) ? "connected" : "apart");
  }

  const auto stats = service.stats();
  std::printf("\nservice: %llu batches accepted, %llu shed-retries, epoch %llu, "
              "%llu communities\n",
              static_cast<unsigned long long>(stats.accepted_batches),
              static_cast<unsigned long long>(sheds),
              static_cast<unsigned long long>(stats.epoch),
              static_cast<unsigned long long>(stats.num_components));
  service.stop();
  return 0;
}

// Unit tests for the virtual-GPU substrate: cache model, device execution,
// atomics, worklist mechanics, and kernel statistics.
#include <gtest/gtest.h>

#include "common/types.h"
#include "gpusim/cache.h"
#include "gpusim/device.h"
#include "gpusim/spec.h"

namespace ecl::gpusim {
namespace {

CacheSpec tiny_cache() {
  // 4 sets x 2 ways x 64B lines = 512 bytes.
  return CacheSpec{512, 64, 2};
}

TEST(CacheSim, ColdMissThenHit) {
  CacheSim c(tiny_cache());
  EXPECT_EQ(c.access(0x1000, false).outcome, CacheSim::Outcome::kMiss);
  EXPECT_EQ(c.access(0x1000, false).outcome, CacheSim::Outcome::kHit);
  EXPECT_EQ(c.access(0x1004, false).outcome, CacheSim::Outcome::kHit);  // same line
  EXPECT_EQ(c.access(0x1040, false).outcome, CacheSim::Outcome::kMiss);  // next line
}

TEST(CacheSim, LruEvictionWithinSet) {
  CacheSim c(tiny_cache());
  // Three lines mapping to the same set (set stride = 4 sets * 64B = 256B).
  EXPECT_EQ(c.access(0x0000, false).outcome, CacheSim::Outcome::kMiss);
  EXPECT_EQ(c.access(0x0100, false).outcome, CacheSim::Outcome::kMiss);
  EXPECT_EQ(c.access(0x0200, false).outcome, CacheSim::Outcome::kMiss);  // evicts 0x0000
  EXPECT_EQ(c.access(0x0100, false).outcome, CacheSim::Outcome::kHit);
  EXPECT_EQ(c.access(0x0000, false).outcome, CacheSim::Outcome::kMiss);  // was evicted
}

TEST(CacheSim, LruIsUpdatedByHits) {
  CacheSim c(tiny_cache());
  (void)c.access(0x0000, false);
  (void)c.access(0x0100, false);
  (void)c.access(0x0000, false);  // refresh 0x0000
  (void)c.access(0x0200, false);  // should evict 0x0100, not 0x0000
  EXPECT_EQ(c.access(0x0000, false).outcome, CacheSim::Outcome::kHit);
  EXPECT_EQ(c.access(0x0100, false).outcome, CacheSim::Outcome::kMiss);
}

TEST(CacheSim, DirtyEvictionReported) {
  CacheSim c(tiny_cache());
  (void)c.access(0x0000, true);  // dirty
  (void)c.access(0x0100, false);
  const auto result = c.access(0x0200, false);  // evicts dirty 0x0000
  EXPECT_TRUE(result.dirty_eviction);
}

TEST(MemorySystem, CountsLevelsCorrectly) {
  DeviceSpec spec = titanx_like();
  spec.l1 = tiny_cache();
  spec.l2 = CacheSpec{4096, 64, 4};
  MemorySystem mem(spec);

  (void)mem.read(0, 0x0000);  // L1 miss -> L2 read (miss -> DRAM)
  (void)mem.read(0, 0x0000);  // L1 hit
  const auto& c = mem.counters();
  EXPECT_EQ(c.reads, 2u);
  EXPECT_EQ(c.l1_hits, 1u);
  EXPECT_EQ(c.l2_reads, 1u);
  EXPECT_EQ(c.dram_accesses, 1u);
}

TEST(MemorySystem, WriteHitStaysInL1) {
  DeviceSpec spec = titanx_like();
  spec.l1 = tiny_cache();
  MemorySystem mem(spec);
  (void)mem.read(0, 0x0000);   // bring line in
  const auto before = mem.counters();
  (void)mem.write(0, 0x0000);  // dirty in place: no L2 traffic
  const auto delta = mem.counters().delta_since(before);
  EXPECT_EQ(delta.writes, 1u);
  EXPECT_EQ(delta.l2_reads, 0u);
  EXPECT_EQ(delta.l2_writes, 0u);
}

TEST(MemorySystem, SeparateL1PerSm) {
  DeviceSpec spec = titanx_like();
  spec.l1 = tiny_cache();
  MemorySystem mem(spec);
  (void)mem.read(0, 0x0000);
  const auto before = mem.counters();
  (void)mem.read(1, 0x0000);  // different SM: its own L1 misses, L2 hits
  const auto delta = mem.counters().delta_since(before);
  EXPECT_EQ(delta.l1_hits, 0u);
  EXPECT_EQ(delta.l2_reads, 1u);
  EXPECT_EQ(delta.l2_hits, 1u);
}

TEST(MemorySystem, AtomicsResolveAtL2) {
  DeviceSpec spec = titanx_like();
  MemorySystem mem(spec);
  const std::uint32_t cost = mem.atomic(0x0000);
  EXPECT_EQ(cost, spec.atomic_cycles);
  EXPECT_EQ(mem.counters().atomics, 1u);
  EXPECT_EQ(mem.counters().l2_reads, 1u);
  EXPECT_EQ(mem.counters().l2_writes, 1u);
}

// ---------------------------------------------------------------------------
// Device execution

TEST(Device, LaunchCoversAllThreadsOnce) {
  Device dev(titanx_like());
  auto buf = dev.alloc<vertex_t>(10000);
  dev.launch("fill", dev.blocks_for(10000, 256), 256, [&](const ThreadCtx& ctx) {
    for (std::uint64_t i = ctx.global_id(); i < 10000; i += ctx.grid_size()) {
      buf.store(ctx, i, static_cast<vertex_t>(i * 2));
    }
  });
  for (std::size_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(buf.host_read(i), static_cast<vertex_t>(i * 2));
  }
}

TEST(Device, GridStrideLoopHandlesMoreWorkThanThreads) {
  Device dev(titanx_like());
  constexpr std::uint64_t kN = 1 << 20;  // exceeds the block cap
  auto buf = dev.alloc<std::uint32_t>(kN);
  dev.launch("fill", dev.blocks_for(kN, 256), 256, [&](const ThreadCtx& ctx) {
    for (std::uint64_t i = ctx.global_id(); i < kN; i += ctx.grid_size()) {
      buf.store(ctx, i, 1);
    }
  });
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kN; ++i) sum += buf.host_read(i);
  EXPECT_EQ(sum, kN);
}

TEST(Device, AtomicAddProducesUniqueSlots) {
  Device dev(titanx_like());
  auto counter = dev.alloc<vertex_t>(1);
  auto slots = dev.alloc<vertex_t>(1000);
  counter.host_write(0, 0);
  dev.launch("claim", dev.blocks_for(1000, 256), 256, [&](const ThreadCtx& ctx) {
    for (std::uint64_t i = ctx.global_id(); i < 1000; i += ctx.grid_size()) {
      const vertex_t slot = counter.atomic_add(ctx, 0, 1);
      slots.store(ctx, slot, 1);
    }
  });
  EXPECT_EQ(counter.host_read(0), 1000u);
  for (std::size_t i = 0; i < 1000; ++i) ASSERT_EQ(slots.host_read(i), 1u);
}

TEST(Device, AtomicCasSemantics) {
  Device dev(titanx_like());
  auto buf = dev.alloc<vertex_t>(1);
  buf.host_write(0, 5);
  dev.launch("cas", 1, 1, [&](const ThreadCtx& ctx) {
    EXPECT_EQ(buf.atomic_cas(ctx, 0, 5, 7), 5u);  // succeeds
    EXPECT_EQ(buf.atomic_cas(ctx, 0, 5, 9), 7u);  // fails, returns current
  });
  EXPECT_EQ(buf.host_read(0), 7u);
}

TEST(Device, KernelStatsAccumulate) {
  Device dev(titanx_like());
  auto buf = dev.alloc<vertex_t>(4096);
  const auto stats = dev.launch("touch", 4, 256, [&](const ThreadCtx& ctx) {
    buf.store(ctx, ctx.global_id() % 4096, 1);
  });
  EXPECT_EQ(stats.name, "touch");
  EXPECT_GT(stats.max_sm_cycles, 0u);
  EXPECT_GT(stats.time_ms, 0.0);
  EXPECT_EQ(stats.memory.writes, 4u * 256u);
  EXPECT_EQ(dev.history().size(), 1u);
  EXPECT_DOUBLE_EQ(dev.total_time_ms(), stats.time_ms);
}

TEST(Device, TimeByKernelGroupsByName) {
  Device dev(titanx_like());
  auto buf = dev.alloc<vertex_t>(64);
  for (int i = 0; i < 3; ++i) {
    dev.launch("a", 1, 32, [&](const ThreadCtx& ctx) { buf.store(ctx, ctx.global_id(), 0); });
  }
  dev.launch("b", 1, 32, [&](const ThreadCtx& ctx) { buf.store(ctx, ctx.global_id(), 0); });
  const auto by_name = dev.time_by_kernel();
  ASSERT_EQ(by_name.size(), 2u);
  EXPECT_GT(by_name.at("a"), by_name.at("b"));
}

TEST(Device, WarpAndLaneIndexing) {
  Device dev(titanx_like());
  auto lanes = dev.alloc<vertex_t>(64);
  dev.launch("warp", 1, 64, [&](const ThreadCtx& ctx) {
    lanes.store(ctx, ctx.global_id(), ctx.lane() + 100 * ctx.warp_in_block());
  });
  EXPECT_EQ(lanes.host_read(0), 0u);
  EXPECT_EQ(lanes.host_read(31), 31u);
  EXPECT_EQ(lanes.host_read(32), 100u);
  EXPECT_EQ(lanes.host_read(63), 131u);
}

TEST(DeviceSpec, ConfigsDiffer) {
  const auto tx = titanx_like();
  const auto k40 = k40_like();
  EXPECT_GT(tx.num_sms, k40.num_sms);
  EXPECT_GT(tx.clock_ghz, k40.clock_ghz);
  EXPECT_GT(tx.l2.size_bytes, k40.l2.size_bytes);
}

}  // namespace
}  // namespace ecl::gpusim

namespace ecl::gpusim {
namespace {

TEST(Divergence, IdleLanesChargedWhenModeled) {
  // One warp where lane 0 does far more work than the rest: with divergence
  // modeling the whole warp is charged lane 0's duration per lane slot.
  auto run = [](bool model) {
    DeviceSpec spec = titanx_like();
    spec.model_divergence = model;
    Device dev(spec);
    auto buf = dev.alloc<vertex_t>(4096);
    const auto stats = dev.launch("skewed", 1, 32, [&](const ThreadCtx& ctx) {
      const int work = ctx.lane() == 0 ? 1000 : 1;
      for (int i = 0; i < work; ++i) {
        buf.store(ctx, (ctx.global_id() * 131 + static_cast<std::uint64_t>(i) * 67) % 4096, 1);
      }
    });
    return stats.max_sm_cycles;
  };
  const auto with_divergence = run(true);
  const auto without = run(false);
  // 31 idle lanes for ~999 operations each: the divergent run must cost
  // substantially more than the pure-work accounting.
  EXPECT_GT(with_divergence, 2 * without);
}

TEST(Divergence, UniformWarpsCostTheSameEitherWay) {
  auto run = [](bool model) {
    DeviceSpec spec = titanx_like();
    spec.model_divergence = model;
    Device dev(spec);
    auto buf = dev.alloc<vertex_t>(4096);
    const auto stats = dev.launch("uniform", 2, 64, [&](const ThreadCtx& ctx) {
      for (int i = 0; i < 50; ++i) {
        buf.store(ctx, (ctx.global_id() + static_cast<std::uint64_t>(i) * 128) % 4096, 1);
      }
    });
    return stats.max_sm_cycles;
  };
  // Identical per-lane operation counts: lockstep charging adds nothing.
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace ecl::gpusim

#include "gpusim/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace ecl::gpusim {

namespace {

std::uint32_t round_up_pow2(std::uint32_t x) {
  return x <= 1 ? 1 : std::bit_ceil(x);
}

}  // namespace

CacheSim::CacheSim(const CacheSpec& spec)
    : line_bytes_(round_up_pow2(spec.line_bytes)),
      associativity_(std::max<std::uint32_t>(1, spec.associativity)) {
  const std::uint64_t lines = std::max<std::uint64_t>(
      associativity_, spec.size_bytes / line_bytes_);
  num_sets_ = round_up_pow2(static_cast<std::uint32_t>(lines / associativity_));
  ways_.resize(static_cast<std::size_t>(num_sets_) * associativity_);
}

CacheSim::AccessResult CacheSim::access(std::uint64_t addr, bool is_write) {
  const std::uint64_t line = addr / line_bytes_;
  const std::uint32_t set = static_cast<std::uint32_t>(line & (num_sets_ - 1));
  const std::uint64_t tag = line / num_sets_;
  Way* base = &ways_[static_cast<std::size_t>(set) * associativity_];
  ++tick_;

  // Hit path.
  for (std::uint32_t w = 0; w < associativity_; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].lru = tick_;
      if (is_write) base[w].dirty = true;
      return {Outcome::kHit, false};
    }
  }

  // Miss: fill into the LRU way.
  Way* victim = base;
  for (std::uint32_t w = 1; w < associativity_; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lru < victim->lru) victim = &base[w];
  }
  const bool dirty_eviction = victim->valid && victim->dirty;
  victim->valid = true;
  victim->dirty = is_write;
  victim->tag = tag;
  victim->lru = tick_;
  return {Outcome::kMiss, dirty_eviction};
}

MemoryCounters& MemoryCounters::operator-=(const MemoryCounters& other) {
  reads -= other.reads;
  writes -= other.writes;
  atomics -= other.atomics;
  l1_hits -= other.l1_hits;
  l2_reads -= other.l2_reads;
  l2_writes -= other.l2_writes;
  l2_hits -= other.l2_hits;
  dram_accesses -= other.dram_accesses;
  return *this;
}

MemoryCounters MemoryCounters::delta_since(const MemoryCounters& baseline) const {
  MemoryCounters d = *this;
  d -= baseline;
  return d;
}

MemorySystem::MemorySystem(const DeviceSpec& spec) : spec_(spec), l2_(spec.l2) {
  l1_.reserve(spec.num_sms);
  for (std::uint32_t s = 0; s < spec.num_sms; ++s) l1_.emplace_back(spec.l1);
}

std::uint32_t MemorySystem::l2_access(std::uint64_t addr, bool is_write) {
  if (is_write) {
    ++counters_.l2_writes;
  } else {
    ++counters_.l2_reads;
  }
  const auto result = l2_.access(addr, is_write);
  if (result.dirty_eviction) ++counters_.dram_accesses;  // write-back to DRAM
  if (result.outcome == CacheSim::Outcome::kHit) {
    ++counters_.l2_hits;
    return spec_.l2_hit_cycles;
  }
  ++counters_.dram_accesses;
  return spec_.dram_cycles;
}

std::uint32_t MemorySystem::read(std::uint32_t sm, std::uint64_t addr) {
  assert(sm < l1_.size());
  ++counters_.reads;
  const auto result = l1_[sm].access(addr, /*is_write=*/false);
  std::uint32_t cost = spec_.l1_hit_cycles;
  if (result.outcome == CacheSim::Outcome::kHit) {
    ++counters_.l1_hits;
    return cost;
  }
  if (result.dirty_eviction) cost += l2_access(addr, /*is_write=*/true);
  cost += l2_access(addr, /*is_write=*/false);
  return cost;
}

std::uint32_t MemorySystem::write(std::uint32_t sm, std::uint64_t addr) {
  assert(sm < l1_.size());
  ++counters_.writes;
  const auto result = l1_[sm].access(addr, /*is_write=*/true);
  std::uint32_t cost = spec_.l1_hit_cycles;
  if (result.outcome == CacheSim::Outcome::kHit) {
    ++counters_.l1_hits;
    return cost;
  }
  // Write-allocate: fetch the line from L2, write locally; the dirty line
  // surfaces at L2 when evicted.
  if (result.dirty_eviction) cost += l2_access(addr, /*is_write=*/true);
  cost += l2_access(addr, /*is_write=*/false);
  return cost;
}

std::uint32_t MemorySystem::atomic(std::uint64_t addr) {
  ++counters_.atomics;
  // GPU atomics execute at the L2: one read-modify-write there.
  ++counters_.l2_reads;
  ++counters_.l2_writes;
  const auto result = l2_.access(addr, /*is_write=*/true);
  if (result.dirty_eviction) ++counters_.dram_accesses;
  if (result.outcome == CacheSim::Outcome::kMiss) ++counters_.dram_accesses;
  return spec_.atomic_cycles;
}

}  // namespace ecl::gpusim

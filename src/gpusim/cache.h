// Set-associative cache model and the two-level memory system used by the
// virtual GPU.
//
// The model is behavioural: it tracks which lines are resident (true LRU
// within each set, write-back + write-allocate) and counts accesses per
// level. It reproduces the quantity the paper profiles in Table 3 — L2 read
// and write accesses — and supplies per-access cycle costs for the runtime
// model.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/spec.h"

namespace ecl::gpusim {

/// One set-associative, write-back, write-allocate cache level with LRU
/// replacement.
class CacheSim {
 public:
  explicit CacheSim(const CacheSpec& spec);

  enum class Outcome { kHit, kMiss };

  struct AccessResult {
    Outcome outcome = Outcome::kMiss;
    bool dirty_eviction = false;  // a dirty line was displaced
  };

  /// Looks up `addr`; on miss, fills the line (possibly evicting).
  AccessResult access(std::uint64_t addr, bool is_write);

  [[nodiscard]] std::uint32_t line_bytes() const { return line_bytes_; }

 private:
  struct Way {
    std::uint64_t tag = ~std::uint64_t{0};
    std::uint64_t lru = 0;  // last-use stamp
    bool valid = false;
    bool dirty = false;
  };

  std::uint32_t line_bytes_;
  std::uint32_t num_sets_;
  std::uint32_t associativity_;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_;  // num_sets_ * associativity_, set-major
};

/// Counters reported by MemorySystem (paper Table 3 compares l2_reads and
/// l2_writes across pointer-jumping flavours).
struct MemoryCounters {
  std::uint64_t reads = 0;          // device loads issued
  std::uint64_t writes = 0;         // device stores issued
  std::uint64_t atomics = 0;        // atomic RMW operations
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_reads = 0;       // L1 read/write-allocate misses
  std::uint64_t l2_writes = 0;      // dirty L1 evictions + atomics
  std::uint64_t l2_hits = 0;
  std::uint64_t dram_accesses = 0;  // L2 misses

  MemoryCounters& operator-=(const MemoryCounters& other);
  [[nodiscard]] MemoryCounters delta_since(const MemoryCounters& baseline) const;
};

/// Per-SM L1 caches in front of a shared L2, with cycle accounting.
class MemorySystem {
 public:
  explicit MemorySystem(const DeviceSpec& spec);

  /// A load issued by SM `sm`; returns its cycle cost.
  std::uint32_t read(std::uint32_t sm, std::uint64_t addr);

  /// A store issued by SM `sm`; returns its cycle cost.
  std::uint32_t write(std::uint32_t sm, std::uint64_t addr);

  /// An atomic RMW; bypasses L1 and resolves at the L2, as on real GPUs.
  std::uint32_t atomic(std::uint64_t addr);

  [[nodiscard]] const MemoryCounters& counters() const { return counters_; }

 private:
  /// L1 miss path: forwards to L2, returns the serving-level cost.
  std::uint32_t l2_access(std::uint64_t addr, bool is_write);

  DeviceSpec spec_;
  std::vector<CacheSim> l1_;  // one per SM
  CacheSim l2_;
  MemoryCounters counters_;
};

}  // namespace ecl::gpusim

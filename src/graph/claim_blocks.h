// How gen_grid2d, gen_road_network and gen_web_graph split the CSR they
// write into blocks of whole lattice rows or whole sites, which the caller
// and one pinned helper per other CPU of its mask claim (for_each_claimed,
// common/claim.h).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace ecl {

/// `items` rows or sites holding n vertices, cut into one block per 2^15
/// vertices, at least 1 and at most 32 and `items`. The count depends on the
/// input alone; up to 32 blocks let the CPUs even out their loads by
/// claiming. Block b holds items [begin(b), begin(b + 1)).
struct ClaimBlocks {
  ClaimBlocks(std::uint64_t n, std::size_t item_count)
      : items(item_count),
        count(std::clamp<std::size_t>(n >> 15, 1, std::min<std::size_t>(32, item_count))) {}

  [[nodiscard]] std::size_t begin(std::size_t b) const { return items * b / count; }

  std::size_t items;
  std::size_t count;
};

}  // namespace ecl

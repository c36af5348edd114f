// Fundamental integer types shared by every module.
#pragma once

#include <cstdint>

// Marks the templates the GPU kernels call (dsu/find.h, dsu/hook.h,
// core/engine.h) for both host and device when nvcc compiles them; nothing
// for a host compiler.
#ifdef __CUDACC__
#define ECL_HD __host__ __device__
#else
#define ECL_HD
#endif

namespace ecl {

/// Vertex identifier. 32 bits suffice for the graph scales this library
/// targets (< 4.29e9 vertices) and halve the memory traffic of the parent
/// array, which dominates the runtime of union-find based CC.
using vertex_t = std::uint32_t;

/// Edge index into a CSR adjacency array. 64 bits so that graphs with more
/// than 2^32 directed edges (e.g. uk-2002 at full scale) remain addressable.
using edge_t = std::uint64_t;

/// Sentinel for "no vertex".
inline constexpr vertex_t kInvalidVertex = static_cast<vertex_t>(-1);

}  // namespace ecl

// Solution verification, mirroring the paper's protocol (§4): every
// implementation's labeling is checked against the serial reference, and
// the number of components must be exact.
#pragma once

#include <span>
#include <string>

#include "graph/graph.h"

namespace ecl {

/// Result of verify_labels with a human-readable reason on failure.
struct VerifyResult {
  bool ok = true;
  std::string reason;
};

/// Checks structural invariants of a CC labeling:
///   * every label is a valid vertex ID,
///   * labels are fixed points (label[label[v]] == label[v]),
///   * both endpoints of every edge carry the same label,
///   * the labeling induces exactly the reference component count, and
///   * vertices in different reference components have different labels.
[[nodiscard]] VerifyResult verify_labels(const Graph& g, std::span<const vertex_t> labels);

/// True if two labelings induce the same partition of [0, n), regardless of
/// which representative each implementation picked.
[[nodiscard]] bool same_partition(std::span<const vertex_t> a, std::span<const vertex_t> b);

/// Number of distinct labels.
[[nodiscard]] vertex_t count_labels(std::span<const vertex_t> labels);

}  // namespace ecl

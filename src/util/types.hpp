#pragma once
// Fundamental scalar types shared across the PMTE library.
//
// The paper (Section 1.2) assumes edge weights whose max/min ratio is
// polynomially bounded in n and that a weight fits a machine word; we use
// IEEE doubles with +infinity as the "no edge / unreachable" element of the
// min-plus semiring.

#include <cstdint>
#include <limits>

namespace pmte {

/// Vertex identifier. Graphs are limited to 2^32-1 vertices.
using Vertex = std::uint32_t;

/// Index into edge arrays (CSR offsets).
using EdgeIndex = std::uint64_t;

/// Edge weight / distance value.
using Weight = double;

/// The additive-neutral element of the min-plus semiring: "unreachable".
[[nodiscard]] constexpr Weight inf_weight() noexcept {
  return std::numeric_limits<Weight>::infinity();
}

/// Sentinel for "no vertex".
[[nodiscard]] constexpr Vertex no_vertex() noexcept {
  return static_cast<Vertex>(-1);
}

/// True iff `w` represents a reachable (finite) distance.
[[nodiscard]] constexpr bool is_finite(Weight w) noexcept {
  return w < inf_weight();
}

/// What one edge offers a receiver in an MBF round (src/mbf/engine.hpp):
/// shift ⊙ *state, sent by `from`.
template <typename State>
struct Offer {
  const State* state;
  Weight shift;
  Vertex from;
};

}  // namespace pmte

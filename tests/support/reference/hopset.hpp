#pragma once
// Hop-set checkers for Equation (1.3): the exhaustive exact hop set, whose
// d = 1 makes it the reference G′ for H and the oracle on small inputs, and
// the empirical stretch of any hop set.  Tests and benches use them; the
// pipeline builds its hop set with build_hub_hopset alone.

#include <cstddef>

#include "src/graph/graph.hpp"
#include "src/hopset/hopset.hpp"
#include "src/util/rng.hpp"

namespace pmte {

/// Exhaustive exact hop set: an edge per connected vertex pair (full APSP),
/// making d = 1, ε̂ = 0.  Θ(n²) size — test/baseline use only.
[[nodiscard]] HopSet build_exact_hopset(const Graph& g);

/// Empirical validation of (1.3): returns the maximum over sampled vertex
/// pairs of dist^d(v,w,G') / dist(v,w,G).  Values ≤ 1+ε̂ certify the hop
/// set on the sample; exact when sample_sources == n.
[[nodiscard]] double measure_hopset_stretch(const Graph& g,
                                            const HopSet& hopset,
                                            std::size_t sample_sources,
                                            Rng& rng);

}  // namespace pmte

#pragma once
// Parallel sum for the test suites.  The library itself reduces nothing in
// floating point (its contract is bit-identical output at any thread
// count); the suites' Jacobi reference counts differing states with it.

#include <cstddef>
#include <numeric>
#include <vector>

#include "src/parallel/parallel.hpp"

namespace pmte::test {

/// Σ body(i) over [0, n): the terms are evaluated in parallel and added in
/// index order, so the sum is the same at any thread count.
template <typename Body>
[[nodiscard]] double parallel_reduce_sum(std::size_t n, Body&& body) {
  std::vector<double> term(n);
  parallel_for(n, [&](std::size_t i) { term[i] = body(i); });
  return std::accumulate(term.begin(), term.end(), 0.0);
}

}  // namespace pmte::test

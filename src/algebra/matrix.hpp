#pragma once
// Dense matrices over an arbitrary semiring (Section 1.1, "Algebraic
// Distance Computations").
//
// The distance product over Smin,+ computes h-hop distances:
// (A^h)_vw = dist^h(v,w,G) (Equation (1.6), Lemma 3.1), and ⌈log₂ n⌉
// squarings reach the fixpoint — the classical polylog-depth / Ω(n³)-work
// approach the paper improves upon.  The template doubles as a reference
// model for the MBF engine: x^{(h)} = A^h x^{(0)} must agree with h
// engine iterations for every semiring (property-tested).

#include <vector>

#include "src/algebra/semiring.hpp"
#include "src/graph/graph.hpp"
#include "src/parallel/parallel.hpp"
#include "src/util/assertions.hpp"

namespace pmte {

template <Semiring S>
class SemiringMatrix {
 public:
  using Value = typename S::Value;

  SemiringMatrix() = default;
  explicit SemiringMatrix(Vertex n) : n_(n), data_(std::size_t{n} * n, S::zero()) {}

  /// Identity: one() on the diagonal, zero() elsewhere.
  static SemiringMatrix identity(Vertex n) {
    SemiringMatrix m(n);
    for (Vertex v = 0; v < n; ++v) m.at(v, v) = S::one();
    return m;
  }

  [[nodiscard]] Value& at(Vertex r, Vertex c) {
    PMTE_ASSERT(r < n_ && c < n_, "matrix index out of range");
    return data_[std::size_t{r} * n_ + c];
  }
  [[nodiscard]] const Value& at(Vertex r, Vertex c) const {
    PMTE_ASSERT(r < n_ && c < n_, "matrix index out of range");
    return data_[std::size_t{r} * n_ + c];
  }

  /// C = A ⊙ B with the semiring's ⊕/⊙ (Equation (1.6)); OpenMP over rows.
  [[nodiscard]] SemiringMatrix multiply(const SemiringMatrix& other) const {
    PMTE_CHECK(n_ == other.n_, "matrix dimension mismatch");
    SemiringMatrix out(n_);
    parallel_for(n_, [&](std::size_t r) {
      for (Vertex k = 0; k < n_; ++k) {
        const Value a = at(static_cast<Vertex>(r), k);
        for (Vertex c = 0; c < n_; ++c) {
          Value& o = out.at(static_cast<Vertex>(r), c);
          o = S::plus(o, S::times(a, other.at(k, c)));
        }
      }
    });
    return out;
  }

  /// A ⊕ B entrywise.
  [[nodiscard]] SemiringMatrix add(const SemiringMatrix& other) const {
    PMTE_CHECK(n_ == other.n_, "matrix dimension mismatch");
    SemiringMatrix out(n_);
    for (std::size_t i = 0; i < data_.size(); ++i) {
      out.data_[i] = S::plus(data_[i], other.data_[i]);
    }
    return out;
  }

  /// y = A ⊙ x for a vector over the semiring (an SLF, Definition 2.12).
  [[nodiscard]] std::vector<Value> apply(const std::vector<Value>& x) const {
    PMTE_CHECK(x.size() == n_, "vector dimension mismatch");
    std::vector<Value> y(n_, S::zero());
    parallel_for(n_, [&](std::size_t r) {
      Value acc = S::zero();
      for (Vertex c = 0; c < n_; ++c) {
        acc = S::plus(acc, S::times(at(static_cast<Vertex>(r), c), x[c]));
      }
      y[r] = acc;
    });
    return y;
  }

  /// A^h by repeated squaring (h ≥ 0; A^0 = identity).
  [[nodiscard]] SemiringMatrix power(unsigned h) const {
    SemiringMatrix result = identity(n_);
    SemiringMatrix base = *this;
    while (h > 0) {
      if (h & 1U) result = result.multiply(base);
      base = base.multiply(base);
      h >>= 1U;
    }
    return result;
  }

  friend bool operator==(const SemiringMatrix&, const SemiringMatrix&) = default;

 private:
  Vertex n_ = 0;
  std::vector<Value> data_;
};

/// The adjacency matrix of G over Smin,+ (Equation (1.4)).
[[nodiscard]] inline SemiringMatrix<MinPlus> min_plus_adjacency(
    const Graph& g) {
  SemiringMatrix<MinPlus> a(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    a.at(v, v) = MinPlus::one();
    for (const auto& e : g.neighbors(v)) a.at(v, e.to) = e.weight;
  }
  return a;
}

/// The adjacency matrix of G over Smax,min (Equation (3.9)).
[[nodiscard]] inline SemiringMatrix<MaxMin> max_min_adjacency(const Graph& g) {
  SemiringMatrix<MaxMin> a(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    a.at(v, v) = MaxMin::one();
    for (const auto& e : g.neighbors(v)) a.at(v, e.to) = e.weight;
  }
  return a;
}

/// The adjacency matrix of G over the Boolean semiring (Equation (3.28)).
[[nodiscard]] inline SemiringMatrix<BooleanSemiring> boolean_adjacency(
    const Graph& g) {
  SemiringMatrix<BooleanSemiring> a(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    a.at(v, v) = true;
    for (const auto& e : g.neighbors(v)) a.at(v, e.to) = true;
  }
  return a;
}

}  // namespace pmte

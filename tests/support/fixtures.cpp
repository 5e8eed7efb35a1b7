#include "tests/support/fixtures.hpp"
#include "tests/support/reference/hopset.hpp"

#include <cmath>
#include <stdexcept>

namespace pmte::test {

std::vector<std::uint64_t> test_seeds(std::size_t count, std::uint64_t base) {
  std::uint64_t state = base * 0x100000001b3ULL + 0x51ed270b3a4f9b17ULL;
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) seeds[i] = splitmix64(state);
  return seeds;
}

Graph support_graph(const std::string& family, Vertex n,
                    std::uint64_t seed) {
  return make_family_graph(family, n, seed);
}

std::vector<SmallGraphCase> small_graph_corpus(std::size_t count,
                                               std::uint64_t base_seed) {
  static const char* kFamilies[] = {"path",        "cycle",    "grid",
                                    "star",        "gnm",      "geometric",
                                    "binary_tree", "powerlaw"};
  constexpr std::size_t kNumFamilies = std::size(kFamilies);
  const auto seeds = test_seeds(count, base_seed);
  std::vector<SmallGraphCase> corpus;
  corpus.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const char* family = kFamilies[i % kNumFamilies];
    const auto n = static_cast<Vertex>(8 + (seeds[i] % 57));  // 8..64
    std::uint64_t child = seeds[i];
    corpus.push_back(SmallGraphCase{
        std::string(family) + "#" + std::to_string(i),
        support_graph(family, n, seeds[i]), splitmix64(child)});
  }
  return corpus;
}

std::vector<SmallGraphCase> serve_graph_corpus(std::size_t count,
                                               std::uint64_t base_seed) {
  static const char* kFamilies[] = {"gnm",      "grid",        "powerlaw",
                                    "geometric", "cliquechain", "cycle"};
  constexpr std::size_t kNumFamilies = std::size(kFamilies);
  const auto seeds = test_seeds(count, base_seed ^ 0x5e7fe5e7fe5e7fe5ULL);
  std::vector<SmallGraphCase> corpus;
  corpus.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const char* family = kFamilies[i % kNumFamilies];
    const auto n = static_cast<Vertex>(64 + (seeds[i] % 129));  // 64..192
    std::uint64_t child = seeds[i];
    corpus.push_back(SmallGraphCase{
        std::string(family) + "#" + std::to_string(i),
        support_graph(family, n, seeds[i]), splitmix64(child)});
  }
  return corpus;
}

SimulatedGraph make_test_simgraph(const Graph& g, std::uint64_t seed,
                                  bool exact_hopset, double eps_hat) {
  Rng rng(seed);
  const auto hs =
      exact_hopset ? build_exact_hopset(g) : build_hub_hopset(g, {}, rng);
  return build_simulated_graph(g, hs, eps_hat, rng);
}

}  // namespace pmte::test

// E7 — work/stretch trade-off via Baswana–Sen (Corollary 7.11).
//
// Claims: a (2k−1)-spanner has O(k·n^{1+1/k}) edges; running the tree
// embedding on the spanner reduces work at the price of an O(k) factor in
// expected stretch.

#include <cmath>

#include "bench/bench_common.hpp"
#include "src/frt/pipelines.hpp"
#include "src/spanner/baswana_sen.hpp"
#include "tests/support/reference/stretch.hpp"

namespace pmte::bench {
namespace {

void run(const Args& args) {
  print_header("E7: spanner trade-off",
               "Corollary 7.11 — (2k-1)-spanner preprocessing: size "
               "O(k n^(1+1/k)), embedding stretch grows by O(k)");
  Rng rng(args.seed);
  // Dense enough that k ≥ 2 actually sparsifies: m ≫ n^{3/2}.
  const Vertex n = args.small ? 128 : 256;
  const std::size_t m = static_cast<std::size_t>(n) * n / 6;
  const std::size_t trees = args.small ? 6 : 12;
  const auto g = make_gnm(n, m, {1.0, 6.0}, rng);
  const auto pairs = sample_pairs(g, 24, 500, rng);

  Table t({"k", "spanner edges", "n^(1+1/k)", "spanner stretch bound",
           "avg E[stretch] of FRT", "work [ops]", "time [ms]"});
  // Baseline k=1: the graph itself.
  for (const unsigned k : {1U, 2U, 3U, 4U, 5U}) {
    auto sp = baswana_sen_spanner(g, k, rng);
    const WorkDepthScope scope;
    const Timer timer;
    std::vector<FrtTree> ts;
    for (std::size_t i = 0; i < trees; ++i) {
      ts.push_back(sample_frt_direct(sp.spanner, rng).tree);
    }
    const double ms = timer.millis();
    const auto rep = measure_stretch(pairs, ts);
    t.add_row({cell(std::size_t{k}), cell(sp.edges),
               cell(std::pow(static_cast<double>(n),
                             1.0 + 1.0 / static_cast<double>(k))),
               cell(std::size_t{2 * k - 1}), cell(rep.avg_expected_stretch),
               cell(static_cast<double>(scope.work_delta())), cell(ms)});
  }
  t.print();
}

}  // namespace
}  // namespace pmte::bench

int main(int argc, char** argv) {
  return pmte::bench::bench_main(argc, argv, pmte::bench::run);
}

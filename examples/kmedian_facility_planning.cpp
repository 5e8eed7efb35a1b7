// Facility planning with k-median on a road-like network (Section 9).
//
//   ./kmedian_facility_planning [--k=8] [--n=600] [--seed=11]
//
// Models a city street grid with variable travel times and places k
// facilities minimising the total travel time of all residents
// (Definition 9.1), comparing the FRT-based approximation against local
// search and random placement.

#include <iostream>

#include "src/apps/kmedian.hpp"
#include "src/graph/generators.hpp"
#include "src/util/cli.hpp"
#include "src/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace pmte;
  const Cli cli(argc, argv);
  cli.reject_unknown({"k", "n", "seed"});
  Rng rng(cli.seed(11));
  const auto k = static_cast<std::size_t>(cli.get_int("k", 8));
  const auto n = static_cast<Vertex>(cli.get_int("n", 600));

  Vertex side = 1;
  while (side * side < n) ++side;
  const Graph city = make_grid(side, side, {1.0, 5.0}, rng);
  std::cout << "street grid: " << side << "x" << side << " ("
            << city.num_vertices() << " intersections, "
            << city.num_edges() << " street segments)\n";

  Timer timer;
  const auto frt = kmedian_frt(city, k, {}, rng);
  const double frt_ms = timer.millis();

  timer.reset();
  const auto ls = kmedian_local_search(city, k, 8, rng);
  const double ls_ms = timer.millis();

  const auto random = kmedian_random(city, k, rng);

  std::cout << "\nplacing k=" << k << " facilities:\n";
  std::cout << "  FRT embedding (Thm 9.2): cost " << frt.cost << " ["
            << frt_ms << " ms, " << frt.candidates << " candidates]\n";
  std::cout << "  local search baseline  : cost " << ls.cost << " [" << ls_ms
            << " ms]\n";
  std::cout << "  random placement       : cost " << random.cost << "\n";
  std::cout << "  FRT / local-search ratio: " << frt.cost / ls.cost << "\n";

  std::cout << "\nchosen facility intersections:";
  for (const Vertex c : frt.centers) std::cout << " " << c;
  std::cout << "\n";
  return 0;
}

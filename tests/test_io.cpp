// Tests for graph serialisation (src/graph/io).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/graph/generators.hpp"
#include "src/graph/io.hpp"

namespace pmte {
namespace {

TEST(GraphIo, RoundTripsExactly) {
  Rng rng(1);
  const auto g = make_gnm(40, 100, {0.125, 17.25}, rng);
  std::stringstream ss;
  write_dimacs(g, ss);
  const auto back = read_dimacs(ss);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (const auto& e : g.edge_list()) {
    EXPECT_DOUBLE_EQ(back.edge_weight(e.u, e.v), e.weight);
  }
}

TEST(GraphIo, RoundTripsIrrationalWeights) {
  // Shortest round-trip formatting must reproduce doubles bit-exactly.
  Rng rng(2);
  std::vector<WeightedEdge> edges;
  for (Vertex i = 0; i + 1 < 20; ++i) {
    edges.push_back(WeightedEdge{i, static_cast<Vertex>(i + 1),
                                 rng.uniform(1e-6, 1e6)});
  }
  const auto g = Graph::from_edges(20, edges);
  std::stringstream ss;
  write_dimacs(g, ss);
  const auto back = read_dimacs(ss);
  for (const auto& e : g.edge_list()) {
    EXPECT_EQ(back.edge_weight(e.u, e.v), e.weight);  // exact, not near
  }
}

TEST(GraphIo, RejectsMalformedInput) {
  {
    std::stringstream ss("e 1 2 1.0\n");  // edge before header
    EXPECT_THROW((void)read_dimacs(ss), std::logic_error);
  }
  {
    std::stringstream ss("p sp 3 1\ne 1 9 1.0\n");  // endpoint out of range
    EXPECT_THROW((void)read_dimacs(ss), std::logic_error);
  }
  {
    std::stringstream ss("p sp 3 2\ne 1 2 1.0\n");  // wrong edge count
    EXPECT_THROW((void)read_dimacs(ss), std::logic_error);
  }
  {
    std::stringstream ss("x nonsense\n");
    EXPECT_THROW((void)read_dimacs(ss), std::logic_error);
  }
  {
    std::stringstream ss("");
    EXPECT_THROW((void)read_dimacs(ss), std::logic_error);
  }
  // Each p and e line is exactly its tokens, a second p line is refused,
  // and the message names the offending line.
  const struct {
    const char* text;
    const char* message;  // substring of the error
  } kBad[] = {
      {"p sp 3 1\ne 1 2 3.5junk\n", "at line 2"},  // junk after the weight
      {"p sp 3 1\ne 1 2 3 4\n", "at line 2"},      // a fourth edge token
      {"p sp 3 2 extra\ne 1 2 1\ne 2 3 1\n", "at line 1"},  // a fifth p token
      {"p sp 3 1\np sp 5 2\ne 1 2 1\ne 2 3 1\n", "at line 2"},  // re-size
      // A claimed edge count is not reserved up front: 2^50 edges would
      // be 16 PiB.
      {"p sp 3 1125899906842624\ne 1 2 1\n", "edge count does not match"},
      // Nor is a vertex count that no edge list of the file can connect:
      // 4·10⁹ vertices would be 32 GB of offsets.
      {"p sp 4000000000 0\n", "claims 4000000000 vertices for 0 edges"},
      {"p sp 4 2\ne 1 2 1\ne 2 3 1\n", "claims 4 vertices for 2 edges"},
  };
  for (const auto& bad : kBad) {
    std::stringstream ss(bad.text);
    try {
      (void)read_dimacs(ss);
      ADD_FAILURE() << "accepted: " << bad.text;
    } catch (const std::logic_error& err) {
      EXPECT_NE(std::string(err.what()).find(bad.message), std::string::npos)
          << bad.text << " -> " << err.what();
    }
  }
}

TEST(GraphIo, AcceptsVertexCountUpToEdgesPlusOne) {
  std::stringstream single("p sp 1 0\n");
  EXPECT_EQ(read_dimacs(single).num_vertices(), 1U);
  std::stringstream pair("p sp 2 1\ne 1 2 1\n");
  const auto g = read_dimacs(pair);
  EXPECT_EQ(g.num_vertices(), 2U);
  EXPECT_EQ(g.num_edges(), 1U);
}

TEST(GraphIo, CommentsAreIgnored) {
  std::stringstream ss("c hello\np sp 2 1\nc mid\ne 1 2 2.5\n");
  const auto g = read_dimacs(ss);
  EXPECT_EQ(g.num_vertices(), 2U);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 2.5);
}

TEST(GraphIo, FileHelpers) {
  Rng rng(3);
  const auto g = make_grid(4, 4, {1.0, 2.0}, rng);
  const std::string path = "/tmp/pmte_io_test.gr";
  save_graph(g, path);
  const auto back = load_graph(path);
  EXPECT_EQ(back.num_edges(), g.num_edges());
  EXPECT_THROW((void)load_graph("/nonexistent/dir/x.gr"), std::logic_error);
}

}  // namespace
}  // namespace pmte

// Tests for graph serialisation (src/graph/io).
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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
      // A self-loop would leave 2 vertices with no edge between them, and
      // a repeated pair would load as one edge, so neither round-trips.
      {"p sp 2 1\ne 1 1 1.0\n", "self-loop e 1 1 at line 2"},
      {"p sp 2 2\ne 1 2 1.0\ne 2 1 2.0\n",
       "edge {2, 1} at line 3 repeats line 2"},
      {"p sp 3 3\ne 1 2 1\nc\ne 2 3 1\ne 1 2 1\n", "at line 5 repeats line 2"},
  };
  // A quoted tag shows its bytes escaped: an embedded NUL would cut
  // what() short before the line number.
  {
    std::stringstream ss(std::string("p sp 2 1\ne\0 1 2 1\n", 18));
    try {
      (void)read_dimacs(ss);
      ADD_FAILURE() << "accepted a NUL byte in a tag";
    } catch (const std::logic_error& err) {
      EXPECT_NE(std::string(err.what()).find(
                    "unknown line tag 'e\\x00' at line 2"),
                std::string::npos)
          << err.what();
    }
  }
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

TEST(GraphIo, RandomizedMalformedInputSweep) {
  // Seeded mutations of a valid file: bit flips, a token deleted or
  // duplicated, truncation, a 20+-digit number, a second p line, a
  // self-loop, and a repeated edge (with the header's m raised to match).
  // The contract on read_dimacs is "reject or load": a rejection is a
  // std::logic_error whose message names a line, the problem line or the
  // edge count, never another exception type; a load has the header's n
  // and m and round-trips bit for bit.
  Rng rng(split_seed(0xD1AC5, 0));
  const auto g = make_gnm(12, 20, {0.125, 17.25}, rng);
  std::ostringstream os;
  write_dimacs(g, os);
  const std::string good = os.str();

  // The file as lines of tokens, and back.
  using Lines = std::vector<std::vector<std::string>>;
  const auto split = [](const std::string& text) {
    Lines lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) {
      std::istringstream ls(line);
      lines.emplace_back(std::istream_iterator<std::string>(ls),
                         std::istream_iterator<std::string>());
    }
    return lines;
  };
  const auto join = [](const Lines& lines) {
    std::string text;
    for (const auto& tokens : lines) {
      for (std::size_t t = 0; t < tokens.size(); ++t) {
        text += (t == 0 ? "" : " ") + tokens[t];
      }
      text += '\n';
    }
    return text;
  };
  const auto edge_line = [&](const Lines& lines) {
    for (;;) {
      const auto i = static_cast<std::size_t>(rng.below(lines.size()));
      if (!lines[i].empty() && lines[i][0] == "e") return i;
    }
  };
  const auto header = [](const Lines& lines) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (!lines[i].empty() && lines[i][0] == "p") return i;
    }
    return lines.size();
  };

  constexpr int kKinds = 8;
  std::array<int, kKinds> tried{}, rejected{}, loaded{};
  for (int iter = 0; iter < 8 * 500; ++iter) {
    const int kind = iter % kKinds;
    auto lines = split(good);
    std::string bad;
    if (kind == 0) {  // one bit flipped
      bad = good;
      const auto at = static_cast<std::size_t>(rng.below(bad.size()));
      bad[at] = static_cast<char>(static_cast<unsigned char>(bad[at]) ^
                                  (1u << rng.below(8)));
    } else if (kind == 3) {  // truncated anywhere, empty included
      bad = good.substr(0, rng.below(good.size()));
    } else {
      const std::size_t i = kind == 5 || (kind == 4 && rng.flip(0.2))
                                ? header(lines)
                                : edge_line(lines);
      auto& tokens = lines[i];
      const std::size_t t = rng.below(tokens.size());
      if (kind == 1) {
        tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(t));
      } else if (kind == 2) {
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t),
                      tokens[t]);
      } else if (kind == 4) {  // 20–29 digits in place of any token
        std::string digits(20 + rng.below(10), '0');
        for (char& c : digits) c = static_cast<char>('1' + rng.below(9));
        tokens[t] = digits;
      } else if (kind == 5) {  // a second p line, anywhere after the first
        const auto copy = tokens;
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         i + 1 + rng.below(lines.size() - i)),
                     copy);
      } else if (kind == 6) {  // a self-loop
        tokens[2] = tokens[1];
      } else {  // an edge repeated, either orientation, any weight
        auto copy = tokens;
        if (rng.flip(0.5)) std::swap(copy[1], copy[2]);
        if (rng.flip(0.5)) copy[3] = "2.5";
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         1 + rng.below(lines.size())),
                     copy);
        auto& m = lines[header(lines)][3];
        m = std::to_string(std::stoul(m) + 1);
      }
      bad = join(lines);
    }
    ++tried[kind];
    try {
      std::istringstream is(bad);
      const Graph back = read_dimacs(is);
      // Loaded: the header's counts, and an exact round trip.
      const auto parsed = split(bad);
      const auto& p = parsed[header(parsed)];
      ASSERT_EQ(back.num_vertices(), std::stoull(p[2])) << bad;
      ASSERT_EQ(back.num_edges(), std::stoull(p[3])) << bad;
      std::ostringstream once, twice;
      write_dimacs(back, once);
      std::istringstream again(once.str());
      write_dimacs(read_dimacs(again), twice);
      ASSERT_EQ(once.str(), twice.str()) << bad;
      ++loaded[kind];
    } catch (const std::logic_error& err) {
      const std::string what = err.what();
      ASSERT_TRUE(what.find("at line") != std::string::npos ||
                  what.find("problem line") != std::string::npos ||
                  what.find("edge count") != std::string::npos)
          << what << "\n" << bad;
      ++rejected[kind];
    } catch (...) {
      FAIL() << "not a std::logic_error for kind " << kind << ":\n" << bad;
    }
  }
  for (int kind = 0; kind < kKinds; ++kind) {
    EXPECT_EQ(tried[kind], 500) << "kind " << kind;
  }
  // Flips, truncations and long numbers meet both outcomes; a deleted or
  // duplicated token, a second p line, a self-loop and a repeated edge
  // never load.
  EXPECT_GT(rejected[0], 300);
  EXPECT_GT(loaded[0], 100);
  EXPECT_EQ(rejected[1], 500);
  EXPECT_EQ(rejected[2], 500);
  EXPECT_GT(rejected[3], 450);
  EXPECT_GT(rejected[4], 330);
  EXPECT_GT(loaded[4], 80);
  EXPECT_EQ(rejected[5], 500);
  EXPECT_EQ(rejected[6], 500);
  EXPECT_EQ(rejected[7], 500);
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

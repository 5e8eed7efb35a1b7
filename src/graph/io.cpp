#include "src/graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <istream>
#include <iterator>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/util/assertions.hpp"
#include "src/util/cli.hpp"

namespace pmte {

namespace {

std::string format_weight(Weight w) {
  // Shortest decimal that round-trips a double.
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), w);
  PMTE_CHECK(ec == std::errc(), "weight formatting failed");
  return {buf, ptr};
}

// `token` in quotes, with bytes outside printable ASCII written as \xHH:
// a message that quotes input stays one C string (an embedded NUL would
// cut what() short, line number and all).
std::string quoted(const std::string& token) {
  std::string out = "'";
  for (const char c : token) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f) {
      out += c;
    } else {
      char hex[5];
      std::snprintf(hex, sizeof(hex), "\\x%02x", byte);
      out += hex;
    }
  }
  return out + "'";
}

}  // namespace

void write_dimacs(const Graph& g, std::ostream& os) {
  os << "c pmte graph\n";
  os << "p sp " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& e : g.edge_list()) {
    os << "e " << (e.u + 1) << ' ' << (e.v + 1) << ' '
       << format_weight(e.weight) << '\n';
  }
}

Graph read_dimacs(std::istream& is) {
  std::string line;
  Vertex n = 0;
  std::size_t m = 0;
  bool have_header = false;
  std::vector<WeightedEdge> edges;
  std::map<std::pair<Vertex, Vertex>, std::size_t> edge_line;  // {u, v}
  for (std::size_t line_no = 1; std::getline(is, line); ++line_no) {
    if (line.empty() || line[0] == 'c') continue;
    const std::string at = " at line " + std::to_string(line_no);
    std::istringstream ls(line);
    const std::vector<std::string> tokens{
        std::istream_iterator<std::string>(ls), {}};
    const std::string tag = tokens.empty() ? "" : tokens[0];
    if (tag == "p") {
      PMTE_CHECK(!have_header, "second problem line" + at);
      PMTE_CHECK(tokens.size() == 4 && tokens[1] == "sp" &&
                     parse_token(tokens[2], n) && parse_token(tokens[3], m),
                 "bad problem line (want \"p sp <n> <m>\")" + at);
      have_header = true;
    } else if (tag == "e") {
      PMTE_CHECK(have_header, "edge before problem line" + at);
      Vertex u = 0;
      Vertex v = 0;
      Weight w = 0;
      PMTE_CHECK(tokens.size() == 4 && parse_token(tokens[1], u) &&
                     parse_token(tokens[2], v) && parse_token(tokens[3], w) &&
                     u >= 1 && v >= 1 && u <= n && v <= n && w > 0.0 &&
                     is_finite(w),
                 "bad edge line (want \"e <u> <v> <w>\", 1 <= u, v <= n, "
                 "w > 0 finite)" + at);
      PMTE_CHECK(u != v, "self-loop e " + tokens[1] + " " + tokens[2] + at);
      // from_edges would merge a repeated pair into one edge, and the file
      // would not round-trip.
      const auto [seen, fresh] = edge_line.emplace(std::minmax(u, v), line_no);
      PMTE_CHECK(fresh, "edge {" + tokens[1] + ", " + tokens[2] + "}" + at +
                            " repeats line " + std::to_string(seen->second));
      edges.push_back(WeightedEdge{u - 1, v - 1, w});
    } else {
      PMTE_CHECK(false, "unknown line tag " + quoted(tag) + at);
    }
  }
  PMTE_CHECK(have_header, "missing problem line");
  PMTE_CHECK(edges.size() == m, "edge count does not match header");
  // More than m + 1 vertices cannot be connected, and a header count
  // bounded by the edges read cannot make from_edges allocate at will.
  PMTE_CHECK(n <= m + 1, "problem line claims " + std::to_string(n) +
                             " vertices for " + std::to_string(m) +
                             " edges; a connected graph has at most " +
                             std::to_string(m + 1));
  return Graph::from_edges(n, std::move(edges));
}

void save_graph(const Graph& g, const std::string& path) {
  std::ofstream os(path);
  PMTE_CHECK(os.good(), "cannot open " + path + " for writing");
  write_dimacs(g, os);
  PMTE_CHECK(os.good(), "write to " + path + " failed");
}

Graph load_graph(const std::string& path) {
  std::ifstream is(path);
  PMTE_CHECK(is.good(), "cannot open " + path);
  return read_dimacs(is);
}

}  // namespace pmte

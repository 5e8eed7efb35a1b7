#pragma once
// Graph serialisation in a DIMACS-shortest-path-like text format: one
// "p sp <n> <m>" problem line, then m "e <u> <v> <w>" edge lines with
// 1-based ids, and "c ..." comment lines anywhere.  Round-trips exactly
// via decimal shortest round-trip formatting.  The reader is strict: each
// p and e line is exactly its tokens, each parsed in full (no trailing
// junk, no extra token), a second p line is an error, and every error
// names its line.  A header with more than m + 1 vertices is refused: such
// a graph cannot be connected, which every embedding here needs.  A
// self-loop, or a {u, v} pair repeated in either orientation, is refused
// too, so a graph that loads has the header's n and m and writes back to
// the same edges.

#include <iosfwd>
#include <string>

#include "src/graph/graph.hpp"

namespace pmte {

/// Write g in DIMACS-like format.
void write_dimacs(const Graph& g, std::ostream& os);

/// Parse a DIMACS-like graph; throws std::logic_error on malformed input.
[[nodiscard]] Graph read_dimacs(std::istream& is);

/// Convenience file helpers.
void save_graph(const Graph& g, const std::string& path);
[[nodiscard]] Graph load_graph(const std::string& path);

}  // namespace pmte

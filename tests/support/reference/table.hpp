#pragma once
// Markdown table printer.  Every experiment bench prints one or more of these
// tables; scripts/run_benches.sh keeps them in each BENCH_*.json's output.

#include <iostream>
#include <string>
#include <vector>

namespace pmte {

class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  /// Append a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Render as a GitHub-flavoured markdown table.
  void print(std::ostream& os = std::cout) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double compactly ("12.3", "1.2e+06", "inf").
[[nodiscard]] std::string format_double(double v, int precision = 3);

/// Convenience: to_string that also handles doubles via format_double.
[[nodiscard]] std::string cell(double v);
[[nodiscard]] std::string cell(std::size_t v);
[[nodiscard]] std::string cell(long long v);
[[nodiscard]] std::string cell(int v);
[[nodiscard]] std::string cell(unsigned v);
[[nodiscard]] std::string cell(const char* v);
[[nodiscard]] std::string cell(std::string v);

}  // namespace pmte

#include "tests/support/reference/table.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/util/assertions.hpp"

namespace pmte {

void Table::add_row(std::vector<std::string> row) {
  PMTE_CHECK(row.size() == header_.size(), "table row arity mismatch");
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << row[c] << std::string(widths[c] - row[c].size(), ' ')
         << " |";
    }
    os << '\n';
  };
  emit(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c)
    os << std::string(widths[c] + 2, '-') << '|';
  os << '\n';
  for (const auto& row : rows_) emit(row);
  os.flush();
}

std::string format_double(double v, int precision) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  if (std::isnan(v)) return "nan";
  std::ostringstream os;
  const double a = std::abs(v);
  if (a != 0.0 && (a >= 1e6 || a < 1e-3)) {
    os.setf(std::ios::scientific);
    os.precision(precision - 1);
  } else {
    os.setf(std::ios::fixed);
    os.precision(precision);
  }
  os << v;
  return os.str();
}

std::string cell(double v) { return format_double(v); }
std::string cell(std::size_t v) { return std::to_string(v); }
std::string cell(long long v) { return std::to_string(v); }
std::string cell(int v) { return std::to_string(v); }
std::string cell(unsigned v) { return std::to_string(v); }
std::string cell(const char* v) { return {v}; }
std::string cell(std::string v) { return v; }

}  // namespace pmte

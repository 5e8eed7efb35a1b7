#pragma once
// Minimal command-line option parsing for benches/examples/apps.
// Supported syntax: --key=value  or  --flag   (boolean true).
// A flag given twice exits 2, and so does a numeric value that is not
// wholly a number (or, for doubles, not finite); the message names the
// flag.

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pmte {

/// Parse all of `token` with std::from_chars; false unless it converts
/// without error and consumes every character.
template <typename T>
[[nodiscard]] bool parse_token(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

class Cli {
 public:
  Cli(int argc, char** argv);

  /// Exit 2, naming the argument, if any argument is not a --flag listed
  /// in `known` (flag names without the leading "--").
  void reject_unknown(std::initializer_list<std::string_view> known) const;

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::uint64_t seed(std::uint64_t fallback = 42) const;

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace pmte

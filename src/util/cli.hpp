#pragma once
// Command-line flags, declared once per binary.  A binary lists every flag
// it takes in a schema — the name, the default, and what the flag accepts:
// an integer range, a finite double, one of a list of choices, any text,
// or no value (a switch) — and Cli checks argv against it once, when it is
// constructed.  Syntax: --name=value, or --name for a switch.  An unknown
// flag, a positional argument, a repeated flag, a value that is not wholly
// a (finite) number, a value outside its range or choices and a switch
// given a value each exit 2 with a message naming the flag.  Reading a
// flag the schema does not declare, or through another kind's accessor,
// fails a PMTE_CHECK.

#include <charconv>
#include <cstdint>
#include <optional>
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

/// One declared flag; build it with the named constructors.
struct Flag {
  enum class Kind { integer, real, text, toggle };

  /// An integer in [lo, hi]; without a default, read it only if has().
  static Flag integer(std::string name, std::optional<std::int64_t> fallback,
                      std::int64_t lo, std::int64_t hi);
  static Flag seed(std::int64_t fallback);  ///< --seed, in [0, 2^63)
  static Flag real(std::string name, double fallback);  ///< finite
  static Flag choice(std::string name, std::string fallback,
                     std::vector<std::string> choices);  ///< text in a list
  static Flag text(std::string name);  ///< any text, empty by default
  static Flag toggle(std::string name);  ///< a switch: given or not

  std::string name;  ///< without the leading "--"
  Kind kind = Kind::toggle;
  std::optional<std::string> fallback;  ///< the default, as it is typed
  std::int64_t lo = 0;                  ///< integer range, inclusive
  std::int64_t hi = 0;
  std::vector<std::string> choices;     ///< text: the values; none: any
};

class Cli {
 public:
  /// Check argv[1..argc) against `schema`; exits 2 on a bad argument.
  Cli(int argc, char** argv, std::vector<Flag> schema);

  /// Whether the flag was given on the command line.
  [[nodiscard]] bool has(std::string_view name) const;
  /// The value of a text (or choice) flag, else its default; likewise for
  /// the integer and real accessors.
  [[nodiscard]] const std::string& get(std::string_view name) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  /// A choice flag's value (else its default) as its index in the choices.
  [[nodiscard]] std::size_t choice(std::string_view name) const;
  [[nodiscard]] std::uint64_t seed() const;

 private:
  [[nodiscard]] std::size_t find(std::string_view name) const;
  [[nodiscard]] const std::string& value(std::string_view name,
                                         Flag::Kind kind) const;

  std::vector<Flag> schema_;
  std::vector<std::optional<std::string>> given_;  ///< parallel to schema_
};

}  // namespace pmte

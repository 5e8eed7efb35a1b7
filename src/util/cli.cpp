#include "src/util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <limits>

#include "src/util/assertions.hpp"

namespace pmte {

namespace {

[[noreturn]] void reject(std::initializer_list<std::string_view> message) {
  for (const std::string_view part : message) std::cerr << part;
  std::cerr << "\n";
  std::exit(2);
}

/// Why `value` does not fit `flag`; empty when it does.
std::string problem(const Flag& flag, const std::string& value) {
  std::int64_t i = 0;
  double d = 0.0;
  std::string list;
  switch (flag.kind) {
    case Flag::Kind::integer:
      if (!parse_token(value, i)) return "not an integer";
      if (i >= flag.lo && i <= flag.hi) return "";
      return "not in [" + std::to_string(flag.lo) + ", " +
             std::to_string(flag.hi) + "]";
    case Flag::Kind::real:
      return parse_token(value, d) && std::isfinite(d) ? ""
                                                       : "not a finite number";
    case Flag::Kind::text:
      for (const auto& c : flag.choices) {
        if (c == value) return "";
        list += (list.empty() ? "" : "|") + c;
      }
      return list.empty() ? "" : "not one of " + list;
    case Flag::Kind::toggle:
    default:
      return "a switch takes no value";
  }
}

}  // namespace

Flag Flag::integer(std::string name, std::optional<std::int64_t> fallback,
                   std::int64_t lo, std::int64_t hi) {
  return {std::move(name), Kind::integer,
          fallback ? std::optional(std::to_string(*fallback)) : std::nullopt,
          lo, hi, {}};
}

Flag Flag::seed(std::int64_t fallback) {
  return integer("seed", fallback, 0, std::numeric_limits<std::int64_t>::max());
}

Flag Flag::real(std::string name, double fallback) {
  char buf[32];  // the shortest text that reads back as exactly `fallback`
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), fallback);
  PMTE_CHECK(ec == std::errc{}, "cannot format the default of --" + name);
  return {std::move(name), Kind::real, std::string(buf, end), 0, 0, {}};
}

Flag Flag::choice(std::string name, std::string fallback,
                  std::vector<std::string> choices) {
  return {std::move(name), Kind::text, std::move(fallback), 0, 0,
          std::move(choices)};
}

Flag Flag::text(std::string name) {
  return {std::move(name), Kind::text, "", 0, 0, {}};
}

Flag Flag::toggle(std::string name) {
  return {std::move(name), Kind::toggle, std::nullopt, 0, 0, {}};
}

Cli::Cli(int argc, char** argv, std::vector<Flag> schema)
    : schema_(std::move(schema)), given_(schema_.size()) {
  for (const Flag& flag : schema_) {
    PMTE_CHECK(!flag.fallback || problem(flag, *flag.fallback).empty(),
               "the default of --" + flag.name + " does not fit its schema");
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) reject({"unexpected argument ", arg});
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const std::size_t at = find(name);
    if (at == schema_.size()) reject({"unknown flag --", name});
    if (given_[at]) reject({"--", name, " given twice"});
    if (eq == std::string_view::npos) {
      if (schema_[at].kind != Flag::Kind::toggle) {
        reject({"--", name, " needs a value (--", name, "=...)"});
      }
      given_[at].emplace();
      continue;
    }
    const std::string value(arg.substr(eq + 1));
    const auto why = problem(schema_[at], value);
    if (!why.empty()) reject({"--", name, "=", value, ": ", why});
    given_[at] = value;
  }
}

std::size_t Cli::find(std::string_view name) const {
  std::size_t at = 0;
  while (at < schema_.size() && schema_[at].name != name) ++at;
  return at;
}

const std::string& Cli::value(std::string_view name, Flag::Kind kind) const {
  const std::size_t at = find(name);
  PMTE_CHECK(at < schema_.size() && schema_[at].kind == kind,
             "--" + std::string(name) + " is not declared with this kind");
  const auto& v = given_[at] ? given_[at] : schema_[at].fallback;
  PMTE_CHECK(v.has_value(),
             "--" + std::string(name) + " has no default; check has() first");
  return *v;
}

bool Cli::has(std::string_view name) const {
  const std::size_t at = find(name);
  PMTE_CHECK(at < schema_.size(), "--" + std::string(name) + " is undeclared");
  return given_[at].has_value();
}

const std::string& Cli::get(std::string_view name) const {
  return value(name, Flag::Kind::text);
}

std::int64_t Cli::get_int(std::string_view name) const {
  std::int64_t v = 0;
  (void)parse_token(value(name, Flag::Kind::integer), v);
  return v;
}

double Cli::get_double(std::string_view name) const {
  double v = 0.0;
  (void)parse_token(value(name, Flag::Kind::real), v);
  return v;
}

std::size_t Cli::choice(std::string_view name) const {
  const auto& v = value(name, Flag::Kind::text);
  const auto& choices = schema_[find(name)].choices;
  const auto at = std::find(choices.begin(), choices.end(), v);
  PMTE_CHECK(at != choices.end(), "--" + std::string(name) + " has no choices");
  return static_cast<std::size_t>(at - choices.begin());
}

std::uint64_t Cli::seed() const {
  return static_cast<std::uint64_t>(get_int("seed"));
}

}  // namespace pmte

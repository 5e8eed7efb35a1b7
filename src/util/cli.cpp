#include "src/util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

namespace pmte {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* what) {
  std::cerr << "--" << key << "=" << value << ": not " << what << "\n";
  std::exit(2);
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    const std::string key(arg.substr(0, eq));
    const std::string value(eq == std::string_view::npos ? "1"
                                                         : arg.substr(eq + 1));
    if (!options_.emplace(key, value).second) {
      std::cerr << "--" << key << " given twice\n";
      std::exit(2);
    }
  }
}

void Cli::reject_unknown(std::initializer_list<std::string_view> known) const {
  if (!positional_.empty()) {
    std::cerr << "unexpected argument " << positional_.front() << "\n";
    std::exit(2);
  }
  for (const auto& [key, value] : options_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::cerr << "unknown flag --" << key << "\n";
      std::exit(2);
    }
  }
}

bool Cli::has(const std::string& key) const { return options_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  std::int64_t v = 0;
  if (!parse_token(it->second, v)) bad_value(key, it->second, "an integer");
  return v;
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  double v = 0.0;
  if (!parse_token(it->second, v) || !std::isfinite(v)) {
    bad_value(key, it->second, "a finite number");
  }
  return v;
}

std::uint64_t Cli::seed(std::uint64_t fallback) const {
  return static_cast<std::uint64_t>(get_int("seed", static_cast<std::int64_t>(fallback)));
}

}  // namespace pmte

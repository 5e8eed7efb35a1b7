#pragma once
// Lightweight runtime checks.
//
// PMTE_CHECK is always on (validates user-facing API contracts and throws
// a CheckError, which is a std::logic_error); PMTE_ASSERT compiles out in
// NDEBUG builds and guards internal invariants.

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pmte {

/// What a failed PMTE_CHECK throws.  what() names the checked expression
/// and its source location, for developers; message() is the check's
/// message alone, for operators.  message() points into what(), so a copy
/// cannot throw.
class CheckError : public std::logic_error {
 public:
  CheckError(const std::string& what, std::size_t message_offset)
      : std::logic_error(what), message_offset_(message_offset) {}

  [[nodiscard]] const char* message() const noexcept {
    return what() + message_offset_;
  }

 private:
  std::size_t message_offset_;
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "PMTE check failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — ";
  const auto message_offset = static_cast<std::size_t>(os.tellp());
  os << msg;
  throw CheckError(os.str(), message_offset);
}

}  // namespace detail

}  // namespace pmte

#define PMTE_CHECK(expr, msg)                                             \
  do {                                                                    \
    if (!(expr)) ::pmte::detail::check_failed(#expr, __FILE__, __LINE__,  \
                                              (msg));                     \
  } while (false)

#ifdef NDEBUG
#define PMTE_ASSERT(expr, msg) \
  do {                         \
  } while (false)
#else
#define PMTE_ASSERT(expr, msg) PMTE_CHECK(expr, msg)
#endif

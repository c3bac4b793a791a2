#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace joinboost {

/// Error thrown on violated internal invariants and bad user input.
/// A research library favours fail-fast over status plumbing; see
/// docs/ARCHITECTURE.md "Typed error taxonomy".
class JbError : public std::runtime_error {
 public:
  explicit JbError(const std::string& msg) : std::runtime_error(msg) {}
};

namespace detail {
inline void ThrowCheckFailure(const char* expr, const char* file, int line,
                              const std::string& extra) {
  std::ostringstream os;
  os << "JB_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!extra.empty()) os << " — " << extra;
  throw JbError(os.str());
}
}  // namespace detail

}  // namespace joinboost

#define JB_CHECK(cond)                                                      \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::joinboost::detail::ThrowCheckFailure(#cond, __FILE__, __LINE__, ""); \
    }                                                                       \
  } while (0)

#define JB_CHECK_MSG(cond, msg)                                              \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::ostringstream jb_os_;                                             \
      jb_os_ << msg;                                                         \
      ::joinboost::detail::ThrowCheckFailure(#cond, __FILE__, __LINE__,      \
                                             jb_os_.str());                  \
    }                                                                        \
  } while (0)

#define JB_THROW(msg)                      \
  do {                                     \
    std::ostringstream jb_os_;             \
    jb_os_ << msg;                         \
    throw ::joinboost::JbError(jb_os_.str()); \
  } while (0)

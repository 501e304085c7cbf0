// check.hpp — lightweight precondition / invariant checking.
//
// FTB_CHECK is always on (it guards API misuse and algorithmic invariants
// whose violation would make results meaningless); FTB_DCHECK compiles away
// in release builds and is used on hot paths.
//
// Failures throw ftb::CheckError rather than aborting so that tests can
// assert on them and long benchmark sweeps can report and continue.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace ftb {

/// Error thrown by FTB_CHECK / FTB_DCHECK on violated invariants.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& msg) : std::logic_error(msg) {}
};

namespace detail {
[[noreturn]] inline void check_fail(const char* expr, const char* file,
                                    int line, const std::string& msg) {
  std::ostringstream os;
  os << "FTB_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}
}  // namespace detail

}  // namespace ftb

#define FTB_CHECK(cond)                                                   \
  do {                                                                    \
    if (!(cond)) ::ftb::detail::check_fail(#cond, __FILE__, __LINE__, ""); \
  } while (0)

#define FTB_CHECK_MSG(cond, msg)                                    \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::ostringstream _ftb_os;                                   \
      _ftb_os << msg;                                               \
      ::ftb::detail::check_fail(#cond, __FILE__, __LINE__,          \
                                _ftb_os.str());                     \
    }                                                               \
  } while (0)

#ifdef NDEBUG
#define FTB_DCHECK(cond) \
  do {                   \
  } while (0)
#else
#define FTB_DCHECK(cond) FTB_CHECK(cond)
#endif

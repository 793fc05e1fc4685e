// Minimal leveled logging and assertion macros.
//
// The library is quiet by default (kWarning); benches and examples raise the
// level for progress reporting.  DYCUCKOO_DCHECK compiles away in NDEBUG
// builds other than sanitizer builds, matching the Google-style "assert
// programmer errors, Status for runtime errors" split.

#ifndef DYCUCKOO_COMMON_LOGGING_H_
#define DYCUCKOO_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace dycuckoo {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Global log threshold; messages below it are dropped.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

[[noreturn]] void DieCheckFailed(const char* expr, const char* file, int line);

}  // namespace internal
}  // namespace dycuckoo

#define DYCUCKOO_LOG(level)                                        \
  ::dycuckoo::internal::LogMessage(::dycuckoo::LogLevel::k##level, \
                                   __FILE__, __LINE__)

// Always-on invariant check.
#define DYCUCKOO_CHECK(expr)                                            \
  do {                                                                  \
    if (!(expr))                                                        \
      ::dycuckoo::internal::DieCheckFailed(#expr, __FILE__, __LINE__);  \
  } while (false)

// Debug-only check: compiled in without NDEBUG, and in sanitizer builds
// (the DYCUCKOO_SANITIZE presets define DYCUCKOO_DCHECK_ALWAYS_ON), so the
// chaos lanes that run under sanitizers also run the costlier invariants.
#if defined(NDEBUG) && !defined(DYCUCKOO_DCHECK_ALWAYS_ON)
#define DYCUCKOO_DCHECK_IS_ON 0
#define DYCUCKOO_DCHECK(expr) \
  do {                        \
  } while (false)
#else
#define DYCUCKOO_DCHECK_IS_ON 1
#define DYCUCKOO_DCHECK(expr) DYCUCKOO_CHECK(expr)
#endif

#endif  // DYCUCKOO_COMMON_LOGGING_H_

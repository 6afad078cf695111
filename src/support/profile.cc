#include "src/support/profile.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace diablo::profile {

int64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return static_cast<int64_t>(usage.ru_maxrss);  // bytes on macOS
#else
    return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
  }
#endif
  return 0;
}

}  // namespace diablo::profile

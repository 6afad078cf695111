// The machine's hardware thread count, the default ParallelRunner job count
// (simbench stamps it into its results under this name too).
#ifndef SRC_SUPPORT_THREAD_POOL_H_
#define SRC_SUPPORT_THREAD_POOL_H_

#include <thread>

namespace diablo {

class ThreadPool {
 public:
  // std::thread::hardware_concurrency with a sane floor of 1.
  static int HardwareConcurrency() {
    const unsigned int n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
  }
};

}  // namespace diablo

#endif  // SRC_SUPPORT_THREAD_POOL_H_

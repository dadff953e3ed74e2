#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ctime>

namespace perfbench {

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tailValue(std::vector<double> v, double* percentile) {
  if (v.empty()) {
    *percentile = 0.0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    *percentile = 100.0;
    return v.back();
  }
  // Ten samples lie above index n - 11; it sits at percentile
  // 100 * (n - 10) / n of the sample.
  *percentile = 100.0 * double(n - 10) / double(n);
  return v[n - 11];
}

}  // namespace perfbench

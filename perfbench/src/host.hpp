// Host clocks and resource counters the benchmark reads around each call.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time (user + sys) of the calling thread.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Whole-process getrusage counters; differences of two readings give what
/// the process spent in between.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double nvcsw = 0;   ///< voluntary context switches
  double nivcsw = 0;  ///< involuntary context switches

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    };
    return Usage{secs(ru.ru_utime), secs(ru.ru_stime),
                 static_cast<double>(ru.ru_nvcsw),
                 static_cast<double>(ru.ru_nivcsw)};
  }
  double cpu_s() const { return user_s + sys_s; }
  Usage& operator+=(const Usage& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    nvcsw += o.nvcsw;
    nivcsw += o.nivcsw;
    return *this;
  }
  friend Usage operator-(Usage a, const Usage& b) {
    a.user_s -= b.user_s;
    a.sys_s -= b.sys_s;
    a.nvcsw -= b.nvcsw;
    a.nivcsw -= b.nivcsw;
    return a;
  }
};

/// Peak resident memory of this process image. Read from VmHWM rather than
/// ru_maxrss, which Linux carries across execve from the parent process.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace perfbench

// host.hpp — run-health probes: process CPU time and resident memory, the
// host's steal share from /proc/stat, the CPU model and the thread count.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// User + system CPU seconds of this process, all threads included. With
/// paravirtual steal accounting, time the hypervisor takes from a vCPU is
/// not charged; neither is time a thread spends blocked.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A "Name:  value" field of /proc/self/status as a number (the kB of the
/// memory fields), or -1 when it is missing.
inline double status_field(const std::string& name) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = name + ":";
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      double v = -1;
      fields >> v;
      return v;
    }
  }
  return -1;
}

/// Resets the process's peak resident set size to its current one, so
/// memory the run held only before this point is not counted. False when
/// the kernel refuses (the peak then covers the whole process lifetime).
inline bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// Current and peak resident set size of this process in MiB.
inline double rss_mb() { return status_field("VmRSS") / 1024.0; }
inline double peak_rss_mb() { return status_field("VmHWM") / 1024.0; }

/// The aggregate "cpu" line of /proc/stat, in clock ticks since boot.
struct CpuTicks {
  std::uint64_t user = 0;  // user + nice
  std::uint64_t steal = 0;
};

inline CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                irq = 0, softirq = 0, steal = 0;
  if (in >> label >> user >> nice >> system >> idle >> iowait >> irq >>
          softirq >> steal &&
      label == "cpu") {
    t.user = user + nice;
    t.steal = steal;
  }
  return t;
}

/// Host-wide steal ticks as a share of user ticks between two samples
/// (0 when the kernel does not report steal).
inline double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const std::uint64_t user = b.user - a.user;
  return user == 0 ? 0.0
                   : static_cast<double>(b.steal - a.steal) /
                         static_cast<double>(user);
}

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// A fixed amount of reference work whose wall time tracks the host's
/// speed: a dependent chain of hashed reads over a 64 KiB table, which
/// stays in the L2 cache, so timing it evicts little of the program's
/// data. The host's speed drifts by 10-30 % over minutes, alike for
/// arithmetic, cache-resident and memory-bound loops (README.md, "Host
/// speed"); the benchmark scales its times by this work's.
class ReferenceWork {
 public:
  /// The work's wall time at the speed the benchmark reports in: its
  /// median on the host the bounds were set on (README.md).
  static constexpr double kNominalSeconds = 2.25e-3;

  ReferenceWork() : table_(kSize) {
    for (std::uint32_t i = 0; i < kSize; ++i) {
      table_[i] = (i * 2654435761u) >> 18;  // a permutation-like spread
    }
  }

  /// The factor that scales a time measured now to the nominal speed:
  /// kNominalSeconds over the best of three runs of the work, so that an
  /// interrupt in one run does not count.
  double scale_now() {
    double best = seconds();
    for (int i = 0; i < 2; ++i) best = std::min(best, seconds());
    return kNominalSeconds / best;
  }

  /// Runs the work once and returns its wall seconds. The table is read
  /// into the cache first, untimed, so what the program did before does
  /// not change the time.
  double seconds() {
    std::uint32_t p = 0;
    for (std::uint32_t i = 0; i < kSize; i += 16) p += table_[i];
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = sink_ | 1;
    p &= kSize - 1;
    for (int i = 0; i < kIterations; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      p = table_[(p ^ static_cast<std::uint32_t>(x >> 40)) & (kSize - 1)];
    }
    sink_ = sink_ + x + p;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

 private:
  static constexpr std::uint32_t kSize = 1u << 14;
  static constexpr int kIterations = 500000;
  std::vector<std::uint32_t> table_;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace perfbench

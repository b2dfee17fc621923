// Small helpers of mvdb_perfbench: a seeded RNG, a sequence digest,
// percentiles that refuse thin tails, metric/JSON output and host-noise
// diagnostics. Nothing here calls into the program.

#ifndef MVDB_PERFBENCH_BENCH_UTIL_H_
#define MVDB_PERFBENCH_BENCH_UTIL_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64: the whole input sequence of a run derives from --seed
/// through this generator, so one seed always gives one sequence.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void Mix(uint64_t v) { h_ = (h_ ^ v) * 1099511628211ULL; }
  void MixDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// A percentile is reported only when at least this many samples lie
/// beyond its rank; below that the tail is a handful of samples.
constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile q in (0, 1) of `v`, or nullopt when fewer than
/// kMinBeyond samples lie beyond the rank.
inline std::optional<double> Percentile(std::vector<double> v, double q) {
  if (v.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  const size_t idx = rank - 1;
  if (n - 1 - idx < kMinBeyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

/// Plain median (the mean of the two middle values for an even count), for
/// small sets such as repeated set-up times or per-window values.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

inline std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The result line: {"correct", "attempted", "failed", "metrics"}.
inline std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) o << ", ";
    o << "\"" << metrics[i].name << "\": {\"value\": "
      << FormatNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
      << "\"}";
  }
  o << "}}";
  return o.str();
}

// --- Host-noise diagnostics ------------------------------------------------
// Printed beside the metrics; never used to filter, rerun or normalise.

/// Machine-wide steal ticks (the 8th field of /proc/stat's "cpu" line), or
/// -1 when unavailable.
inline long long StealTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return -1;
  long long field = 0;
  for (int i = 0; i < 8; ++i) {
    if (!(in >> field)) return -1;
  }
  return field;
}

/// CPU seconds run by every thread of this process, live or ended. Time
/// the hypervisor stole from a vCPU is not in it: the guest kernel accounts
/// steal apart from a task's run time.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Process max RSS in MiB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// A fixed integer kernel (no memory traffic): its time before and after
/// the measured phase shows whether the host's speed moved during it.
inline double CalibrationMs() {
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 0x12345678ULL;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const Clock::time_point t1 = Clock::now();
  volatile uint64_t sink = x;
  (void)sink;
  return MsBetween(t0, t1);
}

}  // namespace perfbench

#endif  // MVDB_PERFBENCH_BENCH_UTIL_H_

#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace joinboost {
namespace bench {

/// Global scale multiplier: set JB_SCALE=10 for runs closer to paper sizes.
inline double Scale() {
  const char* env = std::getenv("JB_SCALE");
  if (!env) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

inline size_t ScaledRows(size_t base) {
  return static_cast<size_t>(static_cast<double>(base) * Scale());
}

inline void Header(const std::string& title, const std::string& paper_shape) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper_shape: %s\n", paper_shape.c_str());
  std::printf("================================================================\n");
}

inline void Row(const std::string& label, double value,
                const std::string& unit = "s") {
  std::printf("  %-40s %10.4f %s\n", label.c_str(), value, unit.c_str());
}

inline void Note(const std::string& text) {
  std::printf("  -- %s\n", text.c_str());
}

/// How often each case runs in benches that report a spread.
constexpr int kRepeats = 5;

/// Runs every case kRepeats times, all cases once per repeat, so that a
/// drift in machine load spreads over every case alike. `run(i)` measures
/// case i; the result holds each case's samples in run order.
template <typename Fn>
auto RepeatInterleaved(size_t num_cases, Fn run) {
  std::vector<std::vector<decltype(run(size_t{0}))>> samples(num_cases);
  for (int r = 0; r < kRepeats; ++r) {
    for (size_t i = 0; i < num_cases; ++i) samples[i].push_back(run(i));
  }
  return samples;
}

/// "median [min–max]" of the samples, each with three decimals.
inline std::string MedianRange(std::vector<double> xs) {
  if (xs.empty()) return "-";
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  const double median =
      n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.3f [%.3f–%.3f]", median, xs.front(),
                xs.back());
  return buf;
}

/// Print a series as "label: v0 v1 v2 ..." (one figure line).
inline void Series(const std::string& label, const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  std::printf("  series %-24s:", label.c_str());
  for (size_t i = 0; i < ys.size(); ++i) {
    if (i < xs.size()) {
      std::printf(" (%g, %.3f)", xs[i], ys[i]);
    } else {
      std::printf(" %.3f", ys[i]);
    }
  }
  std::printf("\n");
}

}  // namespace bench
}  // namespace joinboost

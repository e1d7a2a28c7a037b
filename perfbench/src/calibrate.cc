#include "calibrate.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "report.h"

namespace perfbench {
namespace {

// Keeps the kernel's result alive, so the compiler cannot drop its work.
volatile uint64_t sink = 0;

uint64_t XorShift(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

}  // namespace

double KernelMs() {
  const int64_t t0 = NowNanos();
  uint64_t state = 88172645463325252ULL;
  constexpr int kKeys = 4096;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    // Longer than the small-string buffer: every key allocates.
    keys.push_back("calibration-key-" +
                   std::to_string(XorShift(&state) % 50000));
  }
  std::unordered_map<std::string, int64_t> counts;
  for (int i = 0; i < kKeys; ++i) counts[keys[i]] += i;
  std::sort(keys.begin(), keys.end());
  std::vector<int64_t> ints(4 * kKeys);
  for (int64_t& v : ints) v = static_cast<int64_t>(XorShift(&state) % 1000003);
  std::sort(ints.begin(), ints.end());
  uint64_t sum = 0;
  for (const std::string& k : keys) sum += static_cast<uint64_t>(counts[k]);
  for (size_t i = 0; i < ints.size(); i += 7) {
    sum += static_cast<uint64_t>(ints[i]);
  }
  sink = sink + sum;
  return (NowNanos() - t0) / 1e6;
}

void SpeedGauge::Read() {
  constexpr int kRounds = 3;
  std::vector<std::vector<double>> ms(threads_);
  std::vector<std::thread> workers;
  for (int t = 1; t < threads_; ++t) {
    workers.emplace_back([&ms, t] {
      for (int r = 0; r < kRounds; ++r) ms[t].push_back(KernelMs());
    });
  }
  for (int r = 0; r < kRounds; ++r) ms[0].push_back(KernelMs());
  for (std::thread& w : workers) w.join();
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    double sum = 0.0;
    for (int t = 0; t < threads_; ++t) sum += ms[t][r];
    rounds.push_back(sum / threads_);
  }
  readings_ms_.push_back(Median(rounds));
}

double SpeedGauge::Scale() const {
  const double median = Median(readings_ms_);
  return median > 0 ? kReferenceKernelMs / median : 1.0;
}

}  // namespace perfbench

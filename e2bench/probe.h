// Host-speed probe. The benchmark's host is a shared VM whose speed
// drifts by up to a third over seconds to minutes, for compute and
// memory alike. Two fixed kernels that depend on nothing in src/ are
// timed between slices of the workload; their speed relative to a
// reference host rescales the slices' timings, so a timing metric reads
// as "at reference host speed" (see README.md, "Host-speed correction").
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "e2bench/trace.h"

namespace e2bench {

class HostProbe {
 public:
  HostProbe() : next_(Cycle(kChaseSlots)) {
    for (size_t i = 0; i < kDim * kDim; ++i) {
      w_[i] = static_cast<float>((i * 2654435761u) % 1000) * 1e-3f - 0.5f;
    }
    for (size_t i = 0; i < kDim; ++i) x_[i] = 1.0f / static_cast<float>(1 + i);
  }

  /// Times one pass over both kernels and returns the host's speed
  /// relative to the reference host: 1 at reference speed, 0.8 when
  /// the kernels ran 1.25x as long. The geometric mean of the two
  /// kernels' speeds, so neither dominates. The kernels' data is
  /// brought into cache first, untimed, so what the benchmarked code
  /// left in the caches does not change the sample.
  double Sample() {
    Warm();
    const int64_t t0 = NowNs();
    Compute();
    const int64_t t1 = NowNs();
    Chase();
    const int64_t t2 = NowNs();
    return std::sqrt(kRefComputeNs / static_cast<double>(t1 - t0) *
                     kRefChaseNs / static_cast<double>(t2 - t1));
  }

  /// Median of `n` samples.
  double Speed(int n) {
    std::vector<double> s;
    for (int i = 0; i < n; ++i) s.push_back(Sample());
    std::sort(s.begin(), s.end());
    return s[s.size() / 2];
  }

 private:
  static constexpr size_t kDim = 64;
  static constexpr int kComputeReps = 40;
  // 1 MiB of slots: resident in a 2 MiB L2 when the host is quiet.
  static constexpr size_t kChaseSlots = size_t{1} << 17;
  static constexpr int kChaseSteps = 10000;
  // The kernels' warm times on the reference host (a 4-vCPU Xeon VM
  // with AVX-512, g++ 12.2 -O2); only the unit of the corrected
  // timings depends on them.
  static constexpr double kRefComputeNs = 105e3;
  static constexpr double kRefChaseNs = 100e3;

  /// One random cycle through `n` slots (Sattolo's shuffle with a fixed
  /// LCG), so a chase touches every slot before it repeats.
  static std::vector<uint64_t> Cycle(size_t n) {
    std::vector<uint64_t> next(n);
    for (size_t i = 0; i < n; ++i) next[i] = i;
    uint64_t s = 0x2545F4914F6CDD1Dull;
    for (size_t i = n - 1; i > 0; --i) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(next[i], next[(s >> 33) % i]);
    }
    return next;
  }

  /// Brings the kernels' data into cache.
  void Warm() {
    uint64_t sum = 0;
    for (uint64_t v : next_) sum += v;
    for (float v : w_) sum += static_cast<uint64_t>(v > 0);
    sink_ += sum;
  }

  /// Dependent loads through the cycle: memory-latency bound.
  void Chase() {
    uint64_t p = pos_;
    for (int i = 0; i < kChaseSteps; ++i) p = next_[p];
    pos_ = p;
    sink_ += p;
  }

  /// Repeated 64x64 matrix-vector products with a soft squash: core
  /// compute bound, L1 resident.
  void Compute() {
    for (int rep = 0; rep < kComputeReps; ++rep) {
      for (size_t r = 0; r < kDim; ++r) {
        float acc = 0;
        for (size_t c = 0; c < kDim; ++c) acc += w_[r * kDim + c] * x_[c];
        y_[r] = acc / (1.0f + std::fabs(acc));
      }
      x_ = y_;
    }
    sink_ += static_cast<uint64_t>(std::fabs(x_[0]) * 1e6f);
  }

  std::vector<uint64_t> next_;
  std::array<float, kDim * kDim> w_{};
  std::array<float, kDim> x_{}, y_{};
  uint64_t pos_ = 0;
  volatile uint64_t sink_ = 0;  // Keeps the kernels' results observable.
};

}  // namespace e2bench

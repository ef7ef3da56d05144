#include "common/rng.h"

#include <cmath>

namespace e2nvm {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::Reseed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  has_gauss_ = false;
}

double Rng::NextGaussian() {
  if (has_gauss_) {
    has_gauss_ = false;
    return gauss_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  // Avoid log(0).
  if (u1 < 1e-300) u1 = 1e-300;
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  gauss_ = r * std::sin(theta);
  has_gauss_ = true;
  return r * std::cos(theta);
}

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  assert(n > 0);
  zetan_ = Zeta(n, theta);
  zeta2theta_ = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2theta_ / zetan_);
}

double ZipfianGenerator::Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

uint64_t ZipfianGenerator::Next(Rng& rng) {
  // Gray et al.'s "Quickly generating billion-record synthetic databases".
  double u = rng.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  return static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
}

LatestGenerator::LatestGenerator(uint64_t n) : zipf_(n) {}

uint64_t LatestGenerator::Next(Rng& rng, uint64_t max_seen) {
  uint64_t off = zipf_.Next(rng);
  if (off > max_seen) off = max_seen;
  return max_seen - off;
}

ScrambledZipfianGenerator::ScrambledZipfianGenerator(uint64_t n, double theta)
    : n_(n), zipf_(n, theta) {}

uint64_t ScrambledZipfianGenerator::Next(Rng& rng) {
  uint64_t rank = zipf_.Next(rng);
  return Fnv1a64(&rank, sizeof(rank)) % n_;
}

uint64_t Fnv1a64(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xCBF29CE484222325ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace e2nvm

// Reproduces Figure 18: E2-NVM's (re)training cost per epoch — wall-clock
// latency and modeled CPU energy — as the number of indexed memory
// segments grows (ImageNet-like tiles).
//
// Reproduced shape: both latency and energy per epoch grow roughly
// linearly with the number of segments (the training set size), which is
// what lets the system size its retraining load factor.

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "ml/vae.h"
#include "nvm/energy.h"

namespace e2nvm {
namespace {

constexpr size_t kBits = 1024;

void Run() {
  bench::PrintBanner("Figure 18",
                     "training latency & energy per epoch vs #segments");
  std::printf("%10s %16s %18s\n", "segments", "ms_per_epoch",
              "cpu_uJ_per_epoch");
  nvm::EnergyModel em{nvm::PcmParams{}};
  for (size_t segments : {128u, 256u, 512u, 1024u, 2048u}) {
    auto ds = workload::ResizeItems(
        workload::MakeCifarLike(segments, 21), kBits);
    ml::VaeConfig cfg;
    cfg.input_dim = kBits;
    cfg.hidden_dim = 64;
    cfg.latent_dim = 10;
    cfg.seed = 42;
    ml::Vae vae(cfg);
    ml::VaeTrainOptions opts;
    opts.epochs = 2;
    opts.batch_size = 64;
    opts.validation_fraction = 0.0;
    auto t0 = std::chrono::steady_clock::now();
    ml::TrainHistory h = vae.Train(ds.ToBitRows(), opts);
    auto t1 = std::chrono::steady_clock::now();
    double ms_per_epoch =
        std::chrono::duration<double, std::milli>(t1 - t0).count() /
        opts.epochs;
    double uj_per_epoch = em.CpuPj(h.flops / opts.epochs) * 1e-6;
    std::printf("%10zu %16.1f %18.2f\n", segments, ms_per_epoch,
                uj_per_epoch);
  }
  std::printf("\nexpect: both columns grow ~linearly with segments\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}

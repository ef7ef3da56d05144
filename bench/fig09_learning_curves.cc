// Reproduces Figure 9: training and validation loss per epoch for the
// E2-NVM VAE on several dataset families — the model converges within a
// handful of epochs and generalizes (validation tracks training).

#include <cstdio>

#include "bench/bench_util.h"
#include "ml/vae.h"

namespace e2nvm {
namespace {

void Curve(const char* name, const workload::BitDataset& ds) {
  ml::VaeConfig cfg;
  cfg.input_dim = ds.dim;
  cfg.hidden_dim = 64;
  cfg.latent_dim = 10;
  cfg.beta = 0.05f;
  cfg.seed = 42;
  ml::Vae vae(cfg);
  ml::VaeTrainOptions opts;
  opts.epochs = 12;
  opts.batch_size = 64;
  opts.validation_fraction = 0.2;
  ml::TrainHistory h = vae.Train(ds.ToBitRows(), opts);
  std::printf("dataset=%s\n%6s %14s %14s\n", name, "epoch", "train_loss",
              "val_loss");
  for (size_t e = 0; e < h.train_loss.size(); ++e) {
    std::printf("%6zu %14.3f %14.3f\n", e + 1, h.train_loss[e],
                h.val_loss[e]);
  }
  std::printf("\n");
}

void Run() {
  bench::PrintBanner("Figure 9",
                     "VAE train/validation loss per epoch across datasets");
  Curve("mnist-like", workload::MakeMnistLike(600, 3));
  Curve("cifar-like", workload::MakeCifarLike(600, 5));
  Curve("cctv-like", workload::MakeVideoDataset(
                         {.dim = 1024, .frames = 600, .seed = 7}));
  Curve("pubmed-like", workload::MakePubMedLike(600, 1024, 8, 9));
  std::printf("expect: both curves drop sharply in the first epochs and "
              "flatten; validation tracks training (no divergence)\n");
}

}  // namespace
}  // namespace e2nvm

int main() {
  e2nvm::Run();
  return 0;
}

#ifndef E2NVM_WORKLOAD_DATASETS_H_
#define E2NVM_WORKLOAD_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "ml/matrix.h"

namespace e2nvm::workload {

/// A dataset of equal-sized bit vectors with (optional) latent class labels.
/// These are the synthetic stand-ins for the paper's corpora (MNIST,
/// Fashion-MNIST, CIFAR-10, ImageNet crops, CCTV/Sherbrooke video frames,
/// Amazon access logs, 3D road network, PubMed doc-words). What E2-NVM
/// exploits is *cluster structure in bit space*; every generator here
/// produces a controllable number of latent classes with controllable
/// intra-class vs inter-class Hamming distance.
struct BitDataset {
  std::string name;
  size_t dim = 0;
  std::vector<BitVector> items;
  std::vector<int> labels;

  size_t size() const { return items.size(); }

  /// Converts to n bit rows of dim bits for model training.
  ml::BitRows ToBitRows() const;

  /// Splits off the first `fraction` of items as a training set and the
  /// remainder as test (the paper's 80/20 protocol in §5, Fig 14).
  std::pair<BitDataset, BitDataset> Split(double fraction) const;
};

/// Class-prototype generator: `num_classes` random prototypes of density
/// `proto_density`; each sample copies its class prototype and flips each
/// bit with probability `noise`. Mean intra-class Hamming distance is
/// 2*noise*(1-noise)*dim; inter-class distance is ~dim/2.
struct ProtoConfig {
  std::string name = "proto";
  size_t dim = 1024;
  size_t num_classes = 10;
  size_t samples = 2000;
  double proto_density = 0.5;
  double noise = 0.05;
  uint64_t seed = 1;
};
BitDataset MakeProtoDataset(const ProtoConfig& config);

/// MNIST-like: 784-bit "images" whose prototypes are unions of a few
/// blobs on a 28x28 grid (spatially-correlated structure, low density),
/// 10 classes.
BitDataset MakeMnistLike(size_t samples, uint64_t seed,
                         double noise = 0.04);

/// Fashion-MNIST-like: same grid, denser, blockier prototypes; a
/// *different* distribution family than MNIST-like (used by the Fig 17
/// distribution-shift scenarios).
BitDataset MakeFashionLike(size_t samples, uint64_t seed,
                           double noise = 0.06);

/// CIFAR-10-like: 1024-bit items, 10 classes, higher noise (harder to
/// cluster) — models the paper's hardest image dataset.
BitDataset MakeCifarLike(size_t samples, uint64_t seed,
                         double noise = 0.12);

/// Video-like stream: frames of `dim` bits; consecutive frames differ by
/// `frame_noise` of bits; a scene change flips `scene_change` of the bits
/// every `scene_len` frames (a static camera keeps its background across
/// scene changes, so cuts are partial, not full refreshes). Labels hold
/// the scene index. Models the CCTV / Sherbrooke traffic datasets where
/// successive frames are near-identical.
struct VideoConfig {
  std::string name = "cctv";
  size_t dim = 2048;
  size_t frames = 2000;
  double frame_noise = 0.02;
  size_t scene_len = 100;
  double scene_change = 0.25;
  uint64_t seed = 5;
};
BitDataset MakeVideoDataset(const VideoConfig& config);

/// Spatially-structured video: each scene is a set of blobs on a
/// side x side grid; successive frames translate the scene by one pixel
/// (camera/object motion), and scene changes redraw the blobs. Unlike
/// MakeVideoDataset (iid bits), frames have *within-frame* spatial
/// structure — runs of 1s that a sequence model can continue — which is
/// what the learned-padding experiments (Figs 14-15) exercise.
struct StructuredVideoConfig {
  size_t side = 28;       // dim = side * side bits.
  size_t frames = 1000;
  size_t scene_len = 60;
  size_t num_blobs = 6;
  double blob_radius = 0.22;  // Fraction of side.
  double noise = 0.01;        // Per-bit sensor noise per frame.
  uint64_t seed = 5;
};
BitDataset MakeStructuredVideoDataset(const StructuredVideoConfig& config);

/// Amazon-access-log-like numeric records: (user, resource, action, epoch)
/// tuples packed as fixed-point bit fields; users and resources are
/// Zipfian so popular entities repeat, giving records natural clusters.
BitDataset MakeAccessLogDataset(size_t records, size_t dim, uint64_t seed);

/// 3D-road-network-like records: quantized (lat, lon, altitude) triplets
/// sampled along random-walk "roads"; points on the same road are close in
/// bit space.
BitDataset MakeRoadNetworkDataset(size_t records, size_t dim, uint64_t seed);

/// PubMed-doc-word-like records: sparse presence vectors drawn from
/// per-topic word distributions over a `dim`-word vocabulary.
BitDataset MakePubMedLike(size_t records, size_t dim, size_t topics,
                          uint64_t seed);

/// Tiles or truncates every item of `ds` to exactly `dim` bits (repeating
/// content), so one dataset can feed devices with different segment sizes.
BitDataset ResizeItems(const BitDataset& ds, size_t dim);

/// The standard mixed-real-workload suite used by Figs 13: one dataset of
/// each family, resized to `dim`, concatenated and shuffled.
BitDataset MakeMixedRealDataset(size_t samples, size_t dim, uint64_t seed);

}  // namespace e2nvm::workload

#endif  // E2NVM_WORKLOAD_DATASETS_H_

#include "workload/datasets.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace e2nvm::workload {

ml::BitRows BitDataset::ToBitRows() const {
  ml::BitRows rows(items.size(), dim);
  for (size_t i = 0; i < items.size(); ++i) rows.SetRow(i, items[i]);
  return rows;
}

std::pair<BitDataset, BitDataset> BitDataset::Split(double fraction) const {
  BitDataset a, b;
  a.name = name + "-train";
  b.name = name + "-test";
  a.dim = b.dim = dim;
  size_t cut = static_cast<size_t>(static_cast<double>(items.size()) *
                                   fraction);
  for (size_t i = 0; i < items.size(); ++i) {
    BitDataset& dst = (i < cut) ? a : b;
    dst.items.push_back(items[i]);
    if (!labels.empty()) dst.labels.push_back(labels[i]);
  }
  return {std::move(a), std::move(b)};
}

namespace {

/// Flips each bit of `v` independently with probability `p`.
void PerturbBits(BitVector& v, double p, Rng& rng) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (rng.NextBernoulli(p)) v.Set(i, !v.Get(i));
  }
}

/// Writes `value`'s low `bits` bits into `v` at `pos` (fixed-point field
/// packing for the numeric datasets).
void PackBits(BitVector& v, size_t pos, uint64_t value, size_t bits) {
  for (size_t i = 0; i < bits && pos + i < v.size(); ++i) {
    v.Set(pos + i, (value >> i) & 1);
  }
}

/// Blob prototype on a `side` x `side` grid: union of `blobs` discs.
BitVector MakeBlobPrototype(size_t side, size_t blobs, double radius_frac,
                            Rng& rng) {
  BitVector v(side * side);
  for (size_t b = 0; b < blobs; ++b) {
    double cx = rng.NextDouble() * static_cast<double>(side);
    double cy = rng.NextDouble() * static_cast<double>(side);
    double r = (0.5 + rng.NextDouble()) * radius_frac *
               static_cast<double>(side);
    for (size_t y = 0; y < side; ++y) {
      for (size_t x = 0; x < side; ++x) {
        double dx = static_cast<double>(x) - cx;
        double dy = static_cast<double>(y) - cy;
        if (dx * dx + dy * dy <= r * r) v.Set(y * side + x, true);
      }
    }
  }
  return v;
}

BitDataset FromPrototypes(const std::string& name,
                          const std::vector<BitVector>& protos,
                          size_t samples, double noise, Rng& rng) {
  BitDataset ds;
  ds.name = name;
  ds.dim = protos.empty() ? 0 : protos[0].size();
  ds.items.reserve(samples);
  ds.labels.reserve(samples);
  for (size_t i = 0; i < samples; ++i) {
    size_t c = rng.NextBounded(protos.size());
    BitVector item = protos[c];
    PerturbBits(item, noise, rng);
    ds.items.push_back(std::move(item));
    ds.labels.push_back(static_cast<int>(c));
  }
  return ds;
}

}  // namespace

BitDataset MakeProtoDataset(const ProtoConfig& config) {
  Rng rng(config.seed);
  std::vector<BitVector> protos;
  protos.reserve(config.num_classes);
  for (size_t c = 0; c < config.num_classes; ++c) {
    BitVector p(config.dim);
    for (size_t d = 0; d < config.dim; ++d) {
      if (rng.NextBernoulli(config.proto_density)) p.Set(d, true);
    }
    protos.push_back(std::move(p));
  }
  return FromPrototypes(config.name, protos, config.samples, config.noise,
                        rng);
}

BitDataset MakeMnistLike(size_t samples, uint64_t seed, double noise) {
  Rng rng(seed);
  std::vector<BitVector> protos;
  for (int c = 0; c < 10; ++c) {
    protos.push_back(MakeBlobPrototype(28, 2 + (c % 3), 0.18, rng));
  }
  BitDataset ds = FromPrototypes("mnist-like", protos, samples, noise, rng);
  return ds;
}

BitDataset MakeFashionLike(size_t samples, uint64_t seed, double noise) {
  Rng rng(seed ^ 0xFA5410Full);
  std::vector<BitVector> protos;
  for (int c = 0; c < 10; ++c) {
    // Blockier, denser silhouettes: 4-6 large blobs.
    protos.push_back(MakeBlobPrototype(28, 4 + (c % 3), 0.28, rng));
  }
  return FromPrototypes("fashion-like", protos, samples, noise, rng);
}

BitDataset MakeCifarLike(size_t samples, uint64_t seed, double noise) {
  Rng rng(seed ^ 0xC1FA0ull);
  std::vector<BitVector> protos;
  for (int c = 0; c < 10; ++c) {
    protos.push_back(MakeBlobPrototype(32, 5 + (c % 4), 0.22, rng));
  }
  BitDataset ds = FromPrototypes("cifar-like", protos, samples, noise, rng);
  return ds;
}

BitDataset MakeVideoDataset(const VideoConfig& config) {
  Rng rng(config.seed);
  BitDataset ds;
  ds.name = config.name;
  ds.dim = config.dim;
  BitVector frame(config.dim);
  frame.Randomize(rng);
  int scene = 0;
  for (size_t f = 0; f < config.frames; ++f) {
    if (f > 0 && f % config.scene_len == 0) {
      PerturbBits(frame, config.scene_change, rng);  // Partial scene cut.
      ++scene;
    } else if (f > 0) {
      PerturbBits(frame, config.frame_noise, rng);  // Motion.
    }
    ds.items.push_back(frame);
    ds.labels.push_back(scene);
  }
  return ds;
}

BitDataset MakeStructuredVideoDataset(
    const StructuredVideoConfig& config) {
  Rng rng(config.seed);
  BitDataset ds;
  ds.name = "cctv-structured";
  ds.dim = config.side * config.side;
  BitVector scene(ds.dim);
  int scene_id = -1;
  size_t dx = 0, dy = 0;
  for (size_t f = 0; f < config.frames; ++f) {
    if (f % config.scene_len == 0) {
      scene = MakeBlobPrototype(config.side, config.num_blobs,
                                config.blob_radius, rng);
      ++scene_id;
      dx = dy = 0;
    } else {
      // One-pixel pan per frame (wrapping).
      dx = (dx + 1) % config.side;
      if (dx == 0) dy = (dy + 1) % config.side;
    }
    BitVector frame(ds.dim);
    for (size_t y = 0; y < config.side; ++y) {
      for (size_t x = 0; x < config.side; ++x) {
        size_t sx = (x + dx) % config.side;
        size_t sy = (y + dy) % config.side;
        if (scene.Get(sy * config.side + sx)) {
          frame.Set(y * config.side + x, true);
        }
      }
    }
    PerturbBits(frame, config.noise, rng);
    ds.items.push_back(std::move(frame));
    ds.labels.push_back(scene_id);
  }
  return ds;
}

BitDataset MakeAccessLogDataset(size_t records, size_t dim, uint64_t seed) {
  E2_CHECK(dim >= 128, "access-log records need >= 128 bits");
  Rng rng(seed);
  ZipfianGenerator users(4096, 0.99);
  ZipfianGenerator resources(256, 0.99);
  BitDataset ds;
  ds.name = "amazon-access-like";
  ds.dim = dim;
  uint64_t epoch = 1'600'000'000;
  for (size_t i = 0; i < records; ++i) {
    BitVector v(dim);
    uint64_t user = users.Next(rng);
    uint64_t resource = resources.Next(rng);
    uint64_t action = rng.NextBounded(4);
    epoch += rng.NextBounded(30);
    // Unary popularity stripe: popular resources share long prefixes, so
    // records about the same resource have small Hamming distance.
    size_t stripe = std::min(dim / 2, static_cast<size_t>(resource) * 4);
    for (size_t b = 0; b < stripe; ++b) v.Set(b, true);
    PackBits(v, dim / 2, user, 32);
    PackBits(v, dim / 2 + 32, resource, 16);
    PackBits(v, dim / 2 + 48, action, 8);
    PackBits(v, dim / 2 + 56, epoch, 40);
    ds.items.push_back(std::move(v));
    ds.labels.push_back(static_cast<int>(resource % 32));
  }
  return ds;
}

BitDataset MakeRoadNetworkDataset(size_t records, size_t dim,
                                  uint64_t seed) {
  E2_CHECK(dim >= 96, "road-network records need >= 96 bits");
  Rng rng(seed);
  BitDataset ds;
  ds.name = "road-3d-like";
  ds.dim = dim;
  // Random-walk "roads": each road is a sequence of nearby points.
  double lat = 57.0, lon = 9.9, alt = 20.0;  // North Jutland-ish.
  int road = 0;
  for (size_t i = 0; i < records; ++i) {
    if (i % 64 == 0) {  // New road segment.
      lat = 56.5 + rng.NextDouble();
      lon = 9.0 + 2.0 * rng.NextDouble();
      alt = 50.0 * rng.NextDouble();
      ++road;
    } else {
      lat += (rng.NextDouble() - 0.5) * 1e-4;
      lon += (rng.NextDouble() - 0.5) * 1e-4;
      alt += (rng.NextDouble() - 0.5) * 0.2;
    }
    BitVector v(dim);
    // Gray-ish fixed point: quantize to 1e-6 degrees so nearby points
    // share high-order bits.
    PackBits(v, 0, static_cast<uint64_t>(lat * 1e6), 32);
    PackBits(v, 32, static_cast<uint64_t>(lon * 1e6), 32);
    PackBits(v, 64, static_cast<uint64_t>((alt + 100.0) * 100.0), 32);
    // Tile the triplet across the rest of the record (multi-point rows).
    for (size_t pos = 96; pos + 96 <= dim; pos += 96) {
      v.Overlay(pos, v.Slice(0, 96));
    }
    ds.items.push_back(std::move(v));
    ds.labels.push_back(road % 32);
  }
  return ds;
}

BitDataset MakePubMedLike(size_t records, size_t dim, size_t topics,
                          uint64_t seed) {
  Rng rng(seed);
  BitDataset ds;
  ds.name = "pubmed-like";
  ds.dim = dim;
  // Each topic concentrates on ~10% of the vocabulary.
  std::vector<std::vector<uint32_t>> topic_words(topics);
  for (size_t t = 0; t < topics; ++t) {
    size_t vocab = std::max<size_t>(dim / 10, 4);
    for (size_t w = 0; w < vocab; ++w) {
      topic_words[t].push_back(
          static_cast<uint32_t>(rng.NextBounded(dim)));
    }
  }
  for (size_t i = 0; i < records; ++i) {
    size_t t = rng.NextBounded(topics);
    BitVector v(dim);
    size_t words = dim / 20 + rng.NextBounded(dim / 20 + 1);
    for (size_t w = 0; w < words; ++w) {
      // 85% topical words, 15% background.
      uint32_t word =
          rng.NextBernoulli(0.85)
              ? topic_words[t][rng.NextBounded(topic_words[t].size())]
              : static_cast<uint32_t>(rng.NextBounded(dim));
      v.Set(word, true);
    }
    ds.items.push_back(std::move(v));
    ds.labels.push_back(static_cast<int>(t));
  }
  return ds;
}

BitDataset ResizeItems(const BitDataset& ds, size_t dim) {
  BitDataset out;
  out.name = ds.name;
  out.dim = dim;
  out.labels = ds.labels;
  out.items.reserve(ds.items.size());
  for (const auto& item : ds.items) {
    BitVector v(dim);
    for (size_t pos = 0; pos < dim; pos += item.size()) {
      size_t len = std::min(item.size(), dim - pos);
      v.Overlay(pos, item.Slice(0, len));
    }
    out.items.push_back(std::move(v));
  }
  return out;
}

BitDataset MakeMixedRealDataset(size_t samples, size_t dim, uint64_t seed) {
  size_t per = samples / 5 + 1;
  std::vector<BitDataset> parts;
  parts.push_back(ResizeItems(MakeMnistLike(per, seed), dim));
  parts.push_back(ResizeItems(MakeCifarLike(per, seed + 1), dim));
  parts.push_back(ResizeItems(
      MakeVideoDataset({.dim = dim, .frames = per, .seed = seed + 2}), dim));
  parts.push_back(
      ResizeItems(MakeAccessLogDataset(per, std::max<size_t>(dim, 128),
                                       seed + 3),
                  dim));
  parts.push_back(ResizeItems(
      MakePubMedLike(per, std::max<size_t>(dim, 128), 8, seed + 4), dim));

  BitDataset mixed;
  mixed.name = "mixed-real";
  mixed.dim = dim;
  for (size_t p = 0; p < parts.size(); ++p) {
    for (size_t i = 0; i < parts[p].items.size(); ++i) {
      mixed.items.push_back(parts[p].items[i]);
      mixed.labels.push_back(static_cast<int>(p));
    }
  }
  Rng rng(seed ^ 0xA11CEull);
  // Joint shuffle of items and labels.
  for (size_t i = mixed.items.size(); i > 1; --i) {
    size_t j = rng.NextBounded(i);
    std::swap(mixed.items[i - 1], mixed.items[j]);
    std::swap(mixed.labels[i - 1], mixed.labels[j]);
  }
  mixed.items.resize(std::min(mixed.items.size(), samples));
  mixed.labels.resize(mixed.items.size());
  return mixed;
}

}  // namespace e2nvm::workload

#include "placement/clusterer.h"

#include <algorithm>

namespace e2nvm::placement {

void ContentClusterer::AssignScratch(ml::InferenceScratch* scratch) {
  // Reference fallback: row-by-row PredictCluster. Allocates per row;
  // models on the write path override this with a batched scratch
  // kernel. Kept as the behavioral definition the overrides must match.
  const size_t n = scratch->num_rows;
  scratch->clusters.resize(n);
  for (size_t r = 0; r < n; ++r) {
    std::vector<float> features(scratch->dim);
    Ops().bits_to_floats(scratch->BitRow(r), scratch->dim, features.data());
    scratch->clusters[r] = PredictCluster(features);
  }
}

void ContentClusterer::AssignRows(const ml::BitRows& rows,
                                  std::vector<size_t>* clusters) {
  // Bounded chunks keep the scratch's activations small however large
  // the free set is; every model's AssignScratch is row-independent, so
  // the chunking cannot change an id.
  constexpr size_t kChunkRows = 256;
  ml::InferenceScratch scratch;
  clusters->resize(rows.num_rows);
  for (size_t lo = 0; lo < rows.num_rows; lo += kChunkRows) {
    const size_t n = std::min(kChunkRows, rows.num_rows - lo);
    scratch.Stage(n, rows.dim);
    std::copy_n(rows.BitRow(lo), n * rows.row_words, scratch.bits.data());
    AssignScratch(&scratch);
    std::copy_n(scratch.clusters.begin(), n, clusters->begin() + lo);
  }
}

Status RawKMeansClusterer::Train(const ml::BitRows& contents) {
  ml::Matrix floats;
  contents.ExpandInto(&floats);
  E2_RETURN_IF_ERROR(kmeans_.Fit(floats));
  train_flops_ = kmeans_.FitFlops(contents.num_rows);
  return Status::Ok();
}

Status RawKMeansClusterer::PartialFit(const ml::BitRows& batch) {
  ml::Matrix floats;
  batch.ExpandInto(&floats);
  E2_RETURN_IF_ERROR(kmeans_.PartialFit(floats));
  partial_fit_flops_ = kmeans_.PartialFitFlops(batch.num_rows);
  return Status::Ok();
}

size_t RawKMeansClusterer::PredictCluster(
    const std::vector<float>& features) {
  return kmeans_.Predict(features.data(), features.size());
}

Status PcaKMeansClusterer::Train(const ml::BitRows& contents) {
  ml::Matrix floats;
  contents.ExpandInto(&floats);
  E2_RETURN_IF_ERROR(pca_.Fit(floats));
  ml::Matrix projected = pca_.Transform(floats);
  E2_RETURN_IF_ERROR(kmeans_.Fit(projected));
  train_flops_ =
      pca_.FitFlops(contents.num_rows) + kmeans_.FitFlops(contents.num_rows);
  return Status::Ok();
}

size_t PcaKMeansClusterer::PredictCluster(
    const std::vector<float>& features) {
  std::vector<float> projected =
      pca_.TransformOne(features.data(), features.size());
  return kmeans_.Predict(projected.data(), projected.size());
}

}  // namespace e2nvm::placement

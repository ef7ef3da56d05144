#include "placement/clusterer.h"

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

Status RawKMeansClusterer::Train(const ml::Matrix& contents) {
  E2_RETURN_IF_ERROR(kmeans_.Fit(contents));
  train_flops_ = kmeans_.FitFlops(contents.rows());
  return Status::Ok();
}

size_t RawKMeansClusterer::PredictCluster(
    const std::vector<float>& features) {
  return kmeans_.Predict(features.data(), features.size());
}

Status PcaKMeansClusterer::Train(const ml::Matrix& contents) {
  E2_RETURN_IF_ERROR(pca_.Fit(contents));
  ml::Matrix projected = pca_.Transform(contents);
  E2_RETURN_IF_ERROR(kmeans_.Fit(projected));
  train_flops_ =
      pca_.FitFlops(contents.rows()) + kmeans_.FitFlops(contents.rows());
  return Status::Ok();
}

size_t PcaKMeansClusterer::PredictCluster(
    const std::vector<float>& features) {
  std::vector<float> projected =
      pca_.TransformOne(features.data(), features.size());
  return kmeans_.Predict(projected.data(), projected.size());
}

}  // namespace e2nvm::placement

#include "core/placement_engine.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "nvm/energy.h"

namespace e2nvm::core {

void EngineStats::MergeFrom(const EngineStats& other) {
  placements += other.placements;
  releases += other.releases;
  retrains += other.retrains;
  fallback_acquires += other.fallback_acquires;
  predict_flops += other.predict_flops;
  train_flops += other.train_flops;
  fallback_placements += other.fallback_placements;
  quarantine_skips += other.quarantine_skips;
  quarantined_segments += other.quarantined_segments;
  write_retries += other.write_retries;
  model_fallbacks += other.model_fallbacks;
  failed_retrains += other.failed_retrains;
  background_retrains += other.background_retrains;
  swap_repredictions += other.swap_repredictions;
  refine_steps += other.refine_steps;
  refine_flops += other.refine_flops;
  release_cluster_hits += other.release_cluster_hits;
}

namespace {

/// The policy config the engine actually runs: refinement is a
/// three-party agreement between the engine config (incremental on),
/// the clusterer (supports PartialFit), and the policy (escalation
/// thresholds) — derive the enable bit here so there is one source of
/// truth and an unsupported clusterer silently falls back to full
/// retrains.
RetrainPolicy::Config EffectivePolicyConfig(
    const PlacementEngine::Config& config,
    const placement::ContentClusterer* clusterer) {
  RetrainPolicy::Config pc = config.retrain;
  pc.refine_enabled =
      config.incremental.enabled && clusterer->SupportsPartialFit();
  return pc;
}

}  // namespace

PlacementEngine::PlacementEngine(nvm::MemoryController* ctrl,
                                 placement::ContentClusterer* clusterer,
                                 const Config& config)
    : ctrl_(ctrl),
      clusterer_(clusterer),
      config_(config),
      // The engine's single-caller contract already serializes every pool
      // touch, so the DAP runs in externally-synchronized (lock-free)
      // mode: Acquire/Release never take a mutex on the write path.
      pool_(clusterer->num_clusters(), /*internal_locking=*/false),
      policy_(EffectivePolicyConfig(config, clusterer)),
      // All of this engine's segments live in one accounting lane (the
      // shard's); cache the id so every charge routes without a divide.
      lane_(ctrl->device().LaneOfSegment(config.first_segment)),
      placed_cluster_(config.num_segments, -1) {
  if (config_.incremental.enabled) {
    // The ring's one allocation happens here; every append reuses it.
    ring_.Reset(config_.incremental.ring_capacity, ctrl_->segment_bits());
  }
}

std::string_view PlacementEngine::name() const {
  return clusterer_->name();
}

void PlacementEngine::SetPadder(const Padder* padder, ml::Lstm* lstm) {
  padder_ = padder;
  pad_lstm_ = lstm;
}

ml::BitRows PlacementEngine::ContentsBits(
    const std::vector<uint64_t>& addrs) const {
  ml::BitRows contents(addrs.size(), ctrl_->segment_bits());
  BitVector image;
  for (size_t i = 0; i < addrs.size(); ++i) {
    ctrl_->PeekInto(addrs[i], &image);
    contents.SetRow(i, image);
  }
  return contents;
}

void PlacementEngine::InsertClassified(const ml::BitRows& contents,
                                       const std::vector<uint64_t>& addrs) {
  std::vector<size_t> clusters;
  clusterer_->AssignRows(contents, &clusters);
  for (size_t i = 0; i < addrs.size(); ++i) {
    pool_.Insert(clusters[i], addrs[i]);
  }
}

Status PlacementEngine::TrainOn(const std::vector<uint64_t>& addrs) {
  ml::BitRows contents = ContentsBits(addrs);
  E2_RETURN_IF_ERROR(clusterer_->Train(contents));
  stats_.train_flops += clusterer_->LastTrainFlops();
  ChargeCpu(clusterer_->LastTrainFlops());
  pool_.Clear();
  InsertClassified(contents, addrs);
  policy_.OnRetrain();
  InvalidateClusterCache();
  return Status::Ok();
}

Status PlacementEngine::Bootstrap() {
  const size_t n = config_.num_segments;
  if (n == 0) return Status::InvalidArgument("engine manages no segments");
  std::vector<uint64_t> addrs(n);
  for (size_t i = 0; i < n; ++i) addrs[i] = config_.first_segment + i;
  E2_RETURN_IF_ERROR(TrainOn(addrs));
  bootstrapped_ = true;
  return Status::Ok();
}

Status PlacementEngine::Retrain() {
  std::vector<uint64_t> free_addrs = pool_.AllFree();
  if (free_addrs.size() < clusterer_->num_clusters()) {
    return Status::FailedPrecondition(
        "too few free segments to retrain on");
  }
  E2_RETURN_IF_ERROR(TrainOn(free_addrs));
  ++stats_.retrains;
  return Status::Ok();
}

Status PlacementEngine::ExtendRegion(size_t extra) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("engine not bootstrapped");
  }
  uint64_t start = config_.first_segment + config_.num_segments;
  if (start + extra > ctrl_->num_logical()) {
    return Status::OutOfRange("extension exceeds the controller's space");
  }
  std::vector<uint64_t> addrs(extra);
  for (size_t i = 0; i < extra; ++i) {
    addrs[i] = start + i;
    ChargePrediction();
  }
  InsertClassified(ContentsBits(addrs), addrs);
  config_.num_segments += extra;
  placed_cluster_.resize(config_.num_segments, -1);
  return Status::Ok();
}

StatusOr<const BitVector*> PlacementEngine::ModelImage(
    const BitVector& value) {
  const size_t dim = ctrl_->segment_bits();
  seen_ones_ += value.Popcount();
  seen_bits_ += value.size();
  if (value.size() == dim) return &value;
  if (padder_ == nullptr) {
    // Default: zero-extend at the end.
    pad_scratch_.AssignZeros(dim);
    pad_scratch_.Overlay(0, value);
    return &pad_scratch_;
  }
  E2_RETURN_IF_ERROR(PadForModelInto(value, &pad_scratch_));
  return &pad_scratch_;
}

Status PlacementEngine::PadForModelInto(const BitVector& value,
                                        BitVector* out) {
  PaddingContext ctx;
  ctx.dataset_ones_ratio =
      seen_bits_ ? static_cast<double>(seen_ones_) /
                       static_cast<double>(seen_bits_)
                 : 0.5;
  // Memory-based ratio: density of the whole managed region's cells.
  uint64_t mem_ones = 0;
  uint64_t mem_bits = 0;
  // Sample every stride-th segment (up to 127 of them) to keep the
  // estimate cheap.
  size_t stride = std::max<size_t>(1, config_.num_segments / 64);
  for (size_t i = 0; i < config_.num_segments; i += stride) {
    ctrl_->PeekInto(config_.first_segment + i, &peek_scratch_);
    mem_ones += peek_scratch_.Popcount();
    mem_bits += peek_scratch_.size();
  }
  ctx.memory_ones_ratio =
      mem_bits ? static_cast<double>(mem_ones) /
                     static_cast<double>(mem_bits)
               : 0.5;
  ctx.lstm = pad_lstm_;
  ctx.rng = &pad_rng_;
  return padder_->PadInto(value, ctx, out);
}

void PlacementEngine::ChargeCpu(double flops) {
  const nvm::EnergyModel& em = ctrl_->device().energy_model();
  ctrl_->device().meter().ChargeLane(lane_, nvm::EnergyDomain::kCpuModel,
                                     em.CpuPj(flops));
  ctrl_->device().meter().AdvanceTimeLane(lane_, em.CpuNs(flops));
}

void PlacementEngine::ChargePrediction() {
  double flops = clusterer_->PredictFlops();
  stats_.predict_flops += flops;
  ChargeCpu(flops);
}

size_t PlacementEngine::AssignOne(const BitVector& image) {
  scratch_.Stage(1, ctrl_->segment_bits());
  scratch_.SetRow(0, image);
  ChargePrediction();
  clusterer_->AssignScratch(&scratch_);
  return scratch_.clusters[0];
}

StatusOr<size_t> PlacementEngine::PredictClusterFor(const BitVector& value) {
  if (value.size() > ctrl_->segment_bits()) {
    return Status::InvalidArgument("value wider than a segment");
  }
  E2_ASSIGN_OR_RETURN(const BitVector* image, ModelImage(value));
  return AssignOne(*image);
}

void PlacementEngine::PredictValue(const BitVector& value, bool* model_ok,
                                   size_t* cluster) {
  // Degraded mode: if the model cannot featurize or score the value
  // (padder failure, broken model), fall back to first-free placement
  // instead of surfacing the error to the client.
  *model_ok = true;
  *cluster = 0;
  StatusOr<const BitVector*> image = ModelImage(value);
  if (image.ok()) {
    *cluster = AssignOne(**image);
    return;
  }
  *model_ok = false;
  ++stats_.model_fallbacks;
  E2_LOG(kWarning, "placement model unhealthy, using first-free: %s",
         image.status().ToString().c_str());
}

StatusOr<uint64_t> PlacementEngine::Place(const BitVector& value) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("engine not bootstrapped");
  }
  if (value.size() > ctrl_->segment_bits()) {
    return Status::InvalidArgument("value wider than a segment");
  }
  bool model_ok;
  size_t cluster;
  PredictValue(value, &model_ok, &cluster);
  return PlaceAt(value, cluster, model_ok);
}

StatusOr<uint64_t> PlacementEngine::PlaceAt(const BitVector& value,
                                            size_t cluster,
                                            bool model_ok) {
  // Each iteration consumes one address from the pool; addresses that
  // turn out quarantined (or get quarantined by a failed write-verify)
  // are dropped and the value re-placed, so the loop is bounded by the
  // pool size and only fails once every address is gone.
  for (size_t attempt = 0;; ++attempt) {
    std::optional<uint64_t> addr;
    bool first_pick = model_ok && attempt == 0;
    if (!first_pick) {
      addr = pool_.AcquireAny();
    } else if (config_.search_best_in_cluster) {
      addr = pool_.AcquireBest(cluster, value, [&](uint64_t a) {
        return ctrl_->Peek(a).Slice(0, value.size());
      });
    } else {
      size_t before = pool_.FreeCount(cluster);
      addr = pool_.Acquire(cluster);
      if (addr.has_value() && before == 0) {
        ++stats_.fallback_acquires;
        first_pick = false;
      }
    }
    if (!addr.has_value()) {
      return Status::ResourceExhausted("address pool empty");
    }
    if (ctrl_->IsQuarantined(*addr)) {
      // A quarantined address slipped into the pool (e.g. recycled before
      // the quarantine): drop it and re-acquire.
      ++stats_.quarantine_skips;
      continue;
    }

    // The scratch result's stored image reuses its capacity across
    // placements, keeping the steady-state PUT path off the heap.
    nvm::WriteResult& r = write_scratch_;
    index::MergeWriteInto(*ctrl_, *addr, value, &merge_scratch_, &r);
    stats_.write_retries += r.verify_retries;
    if (r.verify_failed) {
      // The controller quarantined this segment; its cells may hold a
      // corrupted image, so place the value somewhere healthy.
      ++stats_.quarantined_segments;
      continue;
    }
    if (!first_pick) ++stats_.fallback_placements;
    ++stats_.placements;
    if (ring_.capacity() > 0) {
      // Replay-ring feed: the committed segment image is exactly the
      // training row a full retrain would gather for this address, and
      // copying its words costs a fraction of the write itself (no
      // allocation — the ring is pre-sized).
      ring_.Append(r.stored);
    }
    // Memoize the value's cluster for Release: valid only when the model
    // actually predicted it and the value fills the whole segment (so
    // the content Release would re-encode IS this value).
    if (*addr >= config_.first_segment &&
        *addr - config_.first_segment < placed_cluster_.size()) {
      placed_cluster_[*addr - config_.first_segment] =
          (model_ok && value.size() == ctrl_->segment_bits())
              ? static_cast<int32_t>(cluster)
              : -1;
    }
    policy_.RecordWrite(r.total_bits_flipped(), value.size());
    MaybeAutoRetrain();
    return *addr;
  }
}

Status PlacementEngine::PlaceMany(
    const std::vector<const BitVector*>& values,
    std::vector<uint64_t>* addrs) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("engine not bootstrapped");
  }
  const size_t dim = ctrl_->segment_bits();
  bool padded_narrow = false;
  if (padder_ != nullptr) {
    for (const BitVector* v : values) {
      if (v->size() != dim) {
        padded_narrow = true;
        break;
      }
    }
  }
  if (padded_narrow) {
    // Padding samples the live memory image, which every write in the
    // batch mutates, so those features cannot be staged up front; the
    // sequential loop produces the same placements, just unbatched.
    return index::ValuePlacer::PlaceMany(values, addrs);
  }

  size_t next = 0;  // Next value to place.
  while (next < values.size()) {
    if (values[next]->size() > dim) {
      return Status::InvalidArgument("value wider than a segment");
    }
    // Stage the longest run of valid-width values as one batch of bit
    // rows: one encoder pass, one fused assignment.
    size_t end = next;
    while (end < values.size() && values[end]->size() <= dim) ++end;
    size_t base = next;  // Value staged in scratch row 0.
    scratch_.Stage(end - base, dim);
    scratch_.row_ok.assign(end - base, 1);
    for (size_t i = base; i < end; ++i) {
      StatusOr<const BitVector*> image = ModelImage(*values[i]);
      if (image.ok()) {
        scratch_.SetRow(i - base, **image);
        continue;
      }
      // Same degraded mode as Place: this value goes first-free.
      scratch_.row_ok[i - base] = 0;
      scratch_.ClearRow(i - base);
      ++stats_.model_fallbacks;
      E2_LOG(kWarning, "placement model unhealthy, using first-free: %s",
             image.status().ToString().c_str());
    }
    uint64_t gen = model_generation_;
    uint64_t retrains = stats_.retrains;
    uint64_t refines = stats_.refine_steps;
    clusterer_->AssignScratch(&scratch_);
    while (next < end) {
      const size_t row = next - base;
      const bool model_ok = scratch_.row_ok[row] != 0;
      const size_t cluster = model_ok ? scratch_.clusters[row] : 0;
      // Charge at consumption time so a value placed after a mid-batch
      // model change is billed exactly like its sequential counterpart
      // (once, at the flops of the model that placed it).
      if (model_ok) ChargePrediction();
      E2_ASSIGN_OR_RETURN(uint64_t addr,
                          PlaceAt(*values[next], cluster, model_ok));
      addrs->push_back(addr);
      ++next;
      if (next < end &&
          (model_generation_ != gen || stats_.retrains != retrains ||
           stats_.refine_steps != refines)) {
        // The model changed mid-batch (sync retrain, shadow swap, or an
        // incremental refinement step): re-assign the remaining rows
        // with the new model, exactly as sequential Places after the
        // change would. Model images are model-independent, so the
        // staged bit rows just move to the front (and the running
        // 1-ratio counters advance once per value, as in Place).
        scratch_.DropFrontRows(next - base);
        base = next;
        gen = model_generation_;
        retrains = stats_.retrains;
        refines = stats_.refine_steps;
        clusterer_->AssignScratch(&scratch_);
      }
    }
  }
  return Status::Ok();
}

void PlacementEngine::OnRetrainFailure(const Status& s) {
  // Back off exponentially so a persistently failing retrain cannot
  // re-run (and re-log) on every subsequent Place.
  ++stats_.failed_retrains;
  uint32_t shift = std::min<uint32_t>(retrain_failures_in_row_, 6);
  retrain_cooldown_ =
      std::max<uint64_t>(config_.retrain_backoff_writes, 1) << shift;
  ++retrain_failures_in_row_;
  E2_LOG(kWarning, "auto-retrain failed (backing off %llu writes): %s",
         static_cast<unsigned long long>(retrain_cooldown_),
         s.ToString().c_str());
}

void PlacementEngine::RefineStep() {
  const size_t batch = config_.incremental.refine_batch;
  if (batch == 0 || ring_.size() < batch) return;  // Ring still filling.
  refine_in_.Stage(batch, ring_.dim());
  // Oldest-to-newest across the last `batch` writes: successive steps
  // see a sliding window in write order, so the mini-batch sequence —
  // and therefore the refined model — is a deterministic function of
  // the write stream (the §16 determinism contract).
  for (size_t i = 0; i < batch; ++i) {
    std::copy_n(ring_.RecentRow(batch - 1 - i), ring_.row_words(),
                refine_in_.BitRow(i));
  }
  Status s = clusterer_->PartialFit(refine_in_);
  if (!s.ok()) {
    // A broken PartialFit backs off exactly like a failed retrain, so it
    // cannot re-run and re-log on every write.
    OnRetrainFailure(s);
    return;
  }
  const double flops = clusterer_->LastPartialFitFlops();
  ++stats_.refine_steps;
  stats_.refine_flops += flops;
  stats_.train_flops += flops;
  // Refinement runs inline on the write path: unlike a background
  // retrain it costs both CPU energy and write-path time — which is
  // fine, because one step is orders of magnitude below a full retrain.
  ChargeCpu(flops);
  policy_.OnRefine();
  retrain_failures_in_row_ = 0;
  // The model moved: placement-time cluster memos are stale. The DAP is
  // deliberately NOT rebuilt (that is what keeps a step cheap); free
  // addresses re-bucket under the refined model as they recycle.
  InvalidateClusterCache();
}

void PlacementEngine::EnableBackgroundRetrain(ThreadPool* pool) {
  if (bg_ == nullptr) bg_ = std::make_unique<BackgroundRetrainer>(pool);
}

void PlacementEngine::SwapInShadow(BackgroundRetrainer::Result result) {
  // Charge the shadow's training + snapshot-classification flops to the
  // CPU energy domain. Unlike the synchronous path the device clock is
  // NOT advanced: the work ran concurrently with foreground traffic, so
  // it costs energy but no write-path time (the whole point of §4.1.4).
  const double flops = result.train_flops + result.predict_flops;
  stats_.train_flops += flops;
  const nvm::EnergyModel& em = ctrl_->device().energy_model();
  ctrl_->device().meter().ChargeLane(lane_, nvm::EnergyDomain::kCpuModel,
                                     em.CpuPj(flops));

  // Generation-counted double buffer: retire the serving model, adopt
  // the shadow. Predictions only ever run on this (foreground) thread,
  // so a plain pointer swap is race-free.
  retired_clusterer_ = std::move(owned_clusterer_);
  owned_clusterer_ = std::move(result.model);
  clusterer_ = owned_clusterer_.get();
  ++model_generation_;

  // Rebuild the DAP from the *current* free set. Addresses still free
  // from the snapshot reuse the clusters computed in the background;
  // only addresses recycled since the snapshot need a fresh prediction.
  std::unordered_map<uint64_t, size_t> snapshot_cluster;
  snapshot_cluster.reserve(result.addrs.size());
  for (size_t i = 0; i < result.addrs.size(); ++i) {
    snapshot_cluster.emplace(result.addrs[i], result.clusters[i]);
  }
  // Two passes keep the DAP's insertion order: the first classifies
  // the recycled addresses in one batch, the second inserts every
  // address in free-list order.
  std::vector<uint64_t> free_addrs = pool_.AllFree();
  std::vector<uint64_t> fresh;
  for (uint64_t addr : free_addrs) {
    if (!ctrl_->IsQuarantined(addr) && !snapshot_cluster.contains(addr)) {
      fresh.push_back(addr);
      ++stats_.swap_repredictions;
      ChargePrediction();
    }
  }
  std::vector<size_t> fresh_clusters;
  clusterer_->AssignRows(ContentsBits(fresh), &fresh_clusters);
  pool_.Clear();
  size_t next_fresh = 0;
  for (uint64_t addr : free_addrs) {
    if (ctrl_->IsQuarantined(addr)) {
      ++stats_.quarantine_skips;
      continue;
    }
    auto it = snapshot_cluster.find(addr);
    pool_.Insert(it != snapshot_cluster.end() ? it->second
                                              : fresh_clusters[next_fresh++],
                 addr);
  }
  ++stats_.retrains;
  policy_.OnRetrain();
  retrain_failures_in_row_ = 0;
  InvalidateClusterCache();
}

void PlacementEngine::InvalidateClusterCache() {
  std::fill(placed_cluster_.begin(), placed_cluster_.end(), -1);
}

bool PlacementEngine::PumpBackgroundRetrain() {
  if (bg_ == nullptr || !bg_->ready()) return false;
  std::optional<BackgroundRetrainer::Result> result = bg_->TryCollect();
  if (!result.has_value()) return false;
  if (!result->status.ok()) {
    OnRetrainFailure(result->status);
    return false;
  }
  SwapInShadow(std::move(*result));
  return true;
}

void PlacementEngine::MaybeAutoRetrain() {
  if (!config_.auto_retrain) return;

  if (bg_ != nullptr) {
    // Background mode: adopt a finished shadow first (cheap: pointer
    // swap + DAP rebuild from precomputed clusters), then decide whether
    // to launch a new training. The foreground never blocks on training.
    PumpBackgroundRetrain();
    if (retrain_cooldown_ > 0) {
      --retrain_cooldown_;
      return;
    }
    if (bg_->running() || bg_->ready()) return;
    RetrainAction action = policy_.Decide(pool_);
    if (action == RetrainAction::kNone) return;
    if (action == RetrainAction::kRefine) {
      RefineStep();
      return;
    }
    std::vector<uint64_t> free_addrs = pool_.AllFree();
    if (free_addrs.size() < clusterer_->num_clusters()) {
      OnRetrainFailure(Status::FailedPrecondition(
          "too few free segments to retrain on"));
      return;
    }
    ml::BitRows contents = ContentsBits(free_addrs);
    bg_->Start(clusterer_->CloneUntrained(), std::move(contents),
               std::move(free_addrs));
    ++stats_.background_retrains;
    return;
  }

  if (retrain_cooldown_ > 0) {
    --retrain_cooldown_;
    return;
  }
  RetrainAction action = policy_.Decide(pool_);
  if (action == RetrainAction::kNone) return;
  if (action == RetrainAction::kRefine) {
    // The synchronous engine gains the most here: a refinement step is
    // orders of magnitude below the full Retrain() that used to stall
    // this Place for tens of milliseconds.
    RefineStep();
    return;
  }
  Status s = Retrain();
  if (s.ok()) {
    retrain_failures_in_row_ = 0;
    return;
  }
  OnRetrainFailure(s);
}

Status PlacementEngine::Release(uint64_t addr) {
  if (ctrl_->IsQuarantined(addr)) {
    // Never recycle a bad segment back into circulation. Not an error:
    // the caller's delete still succeeded.
    ++stats_.quarantine_skips;
    ++stats_.releases;
    return Status::Ok();
  }
  // Algorithm 2: the freed address's *content* decides the cluster it is
  // recycled into.
  size_t cluster;
  int32_t memo = -1;
  if (addr >= config_.first_segment &&
      addr - config_.first_segment < placed_cluster_.size()) {
    memo = placed_cluster_[addr - config_.first_segment];
  }
  if (memo >= 0) {
    // The content is the full-width value placed here, its cluster was
    // predicted by the still-serving model, and nothing overwrote the
    // segment since — the re-encode would reproduce exactly this id.
    // The controller still "runs" Alg. 2's prediction, so the energy
    // accounting matches the recompute path.
    ChargePrediction();
    cluster = static_cast<size_t>(memo);
    ++stats_.release_cluster_hits;
  } else {
    // PeekInto + the reused peek buffer keep the memo-miss path (first
    // release of a key, or any release right after a model swap
    // invalidated the cache) off the heap, like the rest of the chain.
    ctrl_->PeekInto(addr, &peek_scratch_);
    cluster = AssignOne(peek_scratch_);
  }
  pool_.Insert(cluster, addr);
  ++stats_.releases;
  return Status::Ok();
}

BitVector PlacementEngine::Read(uint64_t addr, size_t bits) {
  return ctrl_->Read(addr).Slice(0, bits);
}

void PlacementEngine::ReadInto(uint64_t addr, size_t bits, BitVector* out) {
  ctrl_->ReadInto(addr, out);
  out->Truncate(bits);
}

Status PlacementEngine::WriteAt(uint64_t addr, const BitVector& value) {
  index::MergeWriteInto(*ctrl_, addr, value, &merge_scratch_,
                        &write_scratch_);
  // The content changed behind the placement memo.
  if (addr >= config_.first_segment &&
      addr - config_.first_segment < placed_cluster_.size()) {
    placed_cluster_[addr - config_.first_segment] = -1;
  }
  return Status::Ok();
}

}  // namespace e2nvm::core

#ifndef E2NVM_CORE_PLACEMENT_ENGINE_H_
#define E2NVM_CORE_PLACEMENT_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/address_pool.h"
#include "core/background_retrainer.h"
#include "core/padding.h"
#include "core/replay_ring.h"
#include "core/retrain.h"
#include "index/value_placer.h"
#include "ml/inference.h"
#include "nvm/controller.h"
#include "placement/clusterer.h"

namespace e2nvm::core {

/// Statistics of a placement engine's lifetime.
///
/// Plain counters, mutated by the engine under the caller's external
/// serialization (see the PlacementEngine threading contract below) and
/// read through stats(). Merge per-shard instances with MergeFrom.
struct EngineStats {
  uint64_t placements = 0;
  uint64_t releases = 0;
  uint64_t retrains = 0;
  uint64_t fallback_acquires = 0;  // Cluster empty, fell back.
  double predict_flops = 0;
  double train_flops = 0;

  // --- Degradation counters (all zero on a healthy run) ---
  /// Placements not served by the model's first pick: cluster-empty
  /// fallbacks, re-acquires after a quarantine, and model fallbacks.
  uint64_t fallback_placements = 0;
  /// Addresses dropped (not placed on / not recycled) because the
  /// controller had quarantined them.
  uint64_t quarantine_skips = 0;
  /// Segments this engine watched enter quarantine (write-verify failed
  /// mid-placement; the value was re-placed elsewhere).
  uint64_t quarantined_segments = 0;
  /// Device-level verify retries accumulated across placements.
  uint64_t write_retries = 0;
  /// Model image/predict failed; first-free placement used instead.
  uint64_t model_fallbacks = 0;
  /// Auto-retrains that failed (each starts/extends the backoff).
  uint64_t failed_retrains = 0;

  // --- Background-retrain counters ---
  /// Shadow trainings launched off the write path.
  uint64_t background_retrains = 0;
  /// Free addresses that needed a fresh on-swap prediction because they
  /// were released after the training snapshot was taken.
  uint64_t swap_repredictions = 0;

  // --- Incremental-learning counters (§16) ---
  /// Inline replay-ring PartialFit refinement steps.
  uint64_t refine_steps = 0;
  /// Flops those steps spent (a subset of train_flops).
  double refine_flops = 0;

  // --- Write-path fast-path counters ---
  /// Releases that reused the cluster memoized at placement time instead
  /// of re-encoding the segment content (full-width values whose model
  /// has not changed since the write).
  uint64_t release_cluster_hits = 0;

  /// Accumulates `other` into this instance (ShardedStore's merged
  /// snapshot: every field is a sum, so shard stats add freely).
  void MergeFrom(const EngineStats& other);
};

/// The heart of E2-NVM (§3.3): content-aware placement of value writes.
///
///   Place(value):  pad -> encode -> cluster -> pop a free address of that
///                  cluster from the DAP -> differential write (Alg. 1)
///   Release(addr): re-encode the address's current content and recycle it
///                  into the matching cluster's free list (Alg. 2)
///
/// The engine implements index::ValuePlacer so any data structure can be
/// "plugged into" it (Fig 12). It owns the DAP and the retraining policy;
/// the clusterer (E2Model or a PNW baseline) and the controller are
/// borrowed. CPU costs of prediction and training are charged to the
/// device's energy meter so software overhead shows up in the energy
/// experiments (Figs 8, 16, 18).
///
/// ## Threading contract (external locking)
///
/// The engine is **single-caller**: Place/PlaceMany/Release/WriteAt/
/// Retrain/ExtendRegion/PumpBackgroundRetrain and the stats()/pool()
/// accessors must be serialized by the caller — they mutate and read
/// unsynchronized state (`stats_` counters, the `placed_cluster_` memo,
/// the inference scratch, the padding RNG and running 1-ratios) that a
/// concurrent second caller would race on. The DynamicAddressPool's own
/// mutex protects only the pool's internals, NOT these engine fields;
/// it is not a substitute for caller serialization. The one sanctioned
/// cross-thread actor is the BackgroundRetrainer worker, which touches
/// nothing of the engine (the handoff is its own release/acquire pair).
///
/// Concurrency across *engines* is free: ShardedStore runs one engine
/// per shard, each behind that shard's mutex, over disjoint segment
/// ranges of one shared device (tests/sharded_stress_test.cc runs this
/// contract under TSan; store_model_test.cc pins the single-caller
/// invariants the contract protects).
class PlacementEngine : public index::ValuePlacer {
 public:
  struct Config {
    /// Segment range [first_segment, first_segment + num_segments) the
    /// engine manages; all of it starts free.
    uint64_t first_segment = 0;
    size_t num_segments = 0;
    /// Ablation: search the predicted cluster's list for the
    /// minimum-Hamming address instead of taking the first (§3.3.1).
    bool search_best_in_cluster = false;
    /// Retrain inside Place when the policy fires. By default the
    /// retrain runs synchronously (stalling that Place for the whole
    /// rebuild, but keeping the simulation single-threaded and
    /// deterministic — equivalent for energy/flip accounting); call
    /// EnableBackgroundRetrain() to move the training to a shadow model
    /// on a background thread as the paper specifies (§4.1.4).
    bool auto_retrain = false;
    RetrainPolicy::Config retrain;
    /// Backoff after a failed auto-retrain: retrain checks are skipped
    /// for this many placements, doubling on consecutive failures (up to
    /// 64x), so a broken retrain cannot re-run and re-log on every write.
    size_t retrain_backoff_writes = 64;

    /// --- Incremental online learning (DESIGN.md §16) ---
    /// When enabled (and the clusterer supports PartialFit), the engine
    /// keeps a fixed-capacity replay ring of recently committed segment
    /// images, fed for pennies on the PUT path, and the retrain policy's
    /// drift detector answers efficiency degradation with cheap inline
    /// PartialFit refinement steps over that ring — escalating to a full
    /// retrain only when refinement fails to recover efficiency
    /// (retrain.max_refine_rounds) or the capacity trigger fires. Off by
    /// default: placements, flips, and the retrain schedule are
    /// bit-identical to the pre-incremental engine.
    struct Incremental {
      bool enabled = false;
      /// Replay-ring rows (recently written segment images), allocated
      /// once at construction; appends never allocate.
      size_t ring_capacity = 256;
      /// Rows per refinement step — the most recent writes, oldest
      /// first. Steps are skipped until the ring holds this many.
      size_t refine_batch = 16;
    };
    Incremental incremental;
  };

  PlacementEngine(nvm::MemoryController* ctrl,
                  placement::ContentClusterer* clusterer,
                  const Config& config);

  /// Trains the clusterer on the current contents of every managed (free)
  /// segment and populates the DAP. Must be called once before Place.
  Status Bootstrap();

  /// Re-trains on the contents of the currently free segments and rebuilds
  /// the DAP. Callable any time after Bootstrap.
  Status Retrain();

  /// Incremental indexing (§4.1.4: "instead of indexing the whole NVM
  /// device at the beginning, a dynamic incremental approach can be
  /// adopted, which starts by indexing a portion of the memory, and as
  /// time progresses, more addresses ... are added incrementally to
  /// DAP"). Extends the managed region by `extra` free segments directly
  /// above the current one, classifying each with the existing model (no
  /// retraining). Requires a prior Bootstrap.
  Status ExtendRegion(size_t extra);

  /// True when the retrain policy wants a rebuild.
  bool RetrainNeeded() const { return policy_.ShouldRetrain(pool_); }

  /// Switches auto-retraining to the background path: when the policy
  /// fires, Place snapshots the free segments, trains a shadow clusterer
  /// on a dedicated thread (kernels use ml::SetComputePool when
  /// installed), and a later Place atomically adopts the trained model —
  /// a generation-counted double buffer in which foreground traffic
  /// keeps serving from the old model during training. The failure
  /// backoff and quarantine handling of the synchronous path are
  /// preserved. Requires config.auto_retrain for the policy to fire.
  /// With `pool`, trainings are submitted to that shared ThreadPool
  /// instead of a dedicated thread per training (the ShardedStore mode);
  /// the pool must outlive the engine.
  void EnableBackgroundRetrain(ThreadPool* pool = nullptr);
  bool background_retrain_enabled() const { return bg_ != nullptr; }

  /// True while a shadow model is training off the write path.
  bool RetrainInFlight() const { return bg_ != nullptr && bg_->running(); }

  /// Generation of the serving model: 0 until the first background swap,
  /// then incremented per adopted shadow.
  uint64_t model_generation() const { return model_generation_; }

  /// Collects and adopts a finished shadow model immediately (tests and
  /// harnesses that want the swap without issuing another Place); no-op
  /// when none is ready. Returns true when a swap happened.
  bool PumpBackgroundRetrain();

  /// Optional padding for values narrower than the model input
  /// (§4: the padded bits are used only for prediction). The padder and
  /// LSTM must outlive the engine.
  void SetPadder(const Padder* padder, ml::Lstm* lstm);

  // --- index::ValuePlacer ---
  std::string_view name() const override;
  StatusOr<uint64_t> Place(const BitVector& value) override;
  /// Batched placement (§4.1.4's batching remedy): stages the whole
  /// run of values as bit rows in one scratch, runs a single encoder
  /// pass and a single fused assignment pass, then pops/writes per value
  /// in order. Placements are identical to sequential Place calls: if the
  /// model retrains or a shadow swaps in mid-batch, the not-yet-placed
  /// rows are re-assigned with the new model, and configurations whose
  /// features depend on the live memory image (a padder with narrow
  /// values) fall back to the sequential loop.
  Status PlaceMany(const std::vector<const BitVector*>& values,
                   std::vector<uint64_t>* addrs) override;
  Status Release(uint64_t addr) override;
  BitVector Read(uint64_t addr, size_t bits) override;
  /// Allocation-free Read: decodes the segment into `out` (capacity
  /// reused across calls) and truncates to `bits` — the serving path of
  /// the network front-end's GET.
  void ReadInto(uint64_t addr, size_t bits, BitVector* out);
  Status WriteAt(uint64_t addr, const BitVector& value) override;
  size_t FreeCount() const override { return pool_.TotalFree(); }

  /// Cluster the engine would choose for `value` (no side effects beyond
  /// CPU accounting and the padding counters) — used by tests and the
  /// padding experiments. InvalidArgument when `value` is wider than a
  /// segment, as for Place.
  StatusOr<size_t> PredictClusterFor(const BitVector& value);

  /// Replay ring of recently written segment images (empty capacity
  /// unless config.incremental.enabled) — exposed for the determinism
  /// tests and diagnostics.
  const ReplayRing& replay_ring() const { return ring_; }

  const DynamicAddressPool& pool() const { return pool_; }
  /// Mutable pool access for harnesses that drive the acquire/write steps
  /// themselves (e.g. the Fig 15 oracle control).
  DynamicAddressPool& mutable_pool() { return pool_; }
  const EngineStats& stats() const { return stats_; }
  const RetrainPolicy& policy() const { return policy_; }
  nvm::MemoryController& ctrl() { return *ctrl_; }
  placement::ContentClusterer& clusterer() { return *clusterer_; }

  /// Placements to go before the next auto-retrain attempt (0 when not
  /// backing off).
  uint64_t retrain_cooldown() const { return retrain_cooldown_; }

 private:
  /// Trains the clusterer on the contents of `addrs`, charges the
  /// training flops, and rebuilds the DAP from `addrs` under the new
  /// model — the shared body of Bootstrap and Retrain.
  Status TrainOn(const std::vector<uint64_t>& addrs);
  /// The value's model image, the bits the model sees: `value` itself
  /// at full width, else `value` zero-extended (no padder) or padded
  /// into pad_scratch_. Advances the running 1-ratio counters once per
  /// call; allocation-free once pad_scratch_ is warm. The pointer is
  /// valid until the next ModelImage call.
  StatusOr<const BitVector*> ModelImage(const BitVector& value);
  /// The padding step of ModelImage: builds the PaddingContext
  /// (dataset/memory 1-ratios, LSTM, RNG) and pads `value` into `out`.
  /// The memory 1-ratio samples segments through peek_scratch_, so with
  /// a universal padder this allocates nothing once `out` is warm.
  Status PadForModelInto(const BitVector& value, BitVector* out);
  /// Stages one segment-width model image in the inference scratch,
  /// charges one prediction, and returns the serving model's cluster.
  size_t AssignOne(const BitVector& image);
  /// Predicts `value`'s cluster (ModelImage + AssignOne), with Place's
  /// degraded-mode fallback on featurize failure (*model_ok = false).
  /// tests/fastpath_equivalence_test.cc pins the placements this path
  /// produces to golden fixtures.
  void PredictValue(const BitVector& value, bool* model_ok,
                    size_t* cluster);
  /// The acquire/write loop of Place: pops addresses (of `cluster` when
  /// model_ok) until a healthy write lands, then updates stats, the
  /// placed-cluster memo, and the retrain policy.
  StatusOr<uint64_t> PlaceAt(const BitVector& value, size_t cluster,
                             bool model_ok);
  /// Forgets every memoized placed cluster (model changed).
  void InvalidateClusterCache();
  /// Charges `flops` of model compute to the CPU energy domain and
  /// advances the lane clock by their time.
  void ChargeCpu(double flops);
  /// ChargeCpu for one prediction of the serving model.
  void ChargePrediction();
  /// Runs the auto-retrain policy after a placement, honoring the
  /// failure backoff.
  void MaybeAutoRetrain();
  /// The contents of `addrs` as bit rows (one word copy per segment,
  /// row i = addrs[i]) — the training and re-classification input of
  /// Bootstrap, Retrain, the background snapshot, the shadow swap and
  /// ExtendRegion.
  ml::BitRows ContentsBits(const std::vector<uint64_t>& addrs) const;
  /// Classifies every row of `contents` with the serving model (batched
  /// AssignRows) and inserts addrs[i] into its cluster, in order.
  void InsertClassified(const ml::BitRows& contents,
                        const std::vector<uint64_t>& addrs);
  /// Starts/extends the exponential retrain-failure backoff.
  void OnRetrainFailure(const Status& s);
  /// One inline incremental refinement step (§16): copies the most
  /// recent refine_batch ring rows (oldest first) into scratch, runs the
  /// clusterer's PartialFit, charges flops/energy/time, and invalidates
  /// the placement memo. Skipped while the ring is still filling.
  void RefineStep();
  /// Adopts a trained shadow: swaps the serving model pointer and
  /// rebuilds the DAP from the current free set using the snapshot's
  /// precomputed clusters.
  void SwapInShadow(BackgroundRetrainer::Result result);

  nvm::MemoryController* ctrl_;
  placement::ContentClusterer* clusterer_;
  Config config_;
  DynamicAddressPool pool_;
  RetrainPolicy policy_;
  /// Device accounting lane of this engine's segment range, cached at
  /// construction (ConfigureAccountingLanes must run before engines are
  /// built). Every meter charge routes here so the energy slab stays
  /// single-writer under the shard lock.
  size_t lane_ = 0;
  EngineStats stats_;
  const Padder* padder_ = nullptr;
  ml::Lstm* pad_lstm_ = nullptr;
  Rng pad_rng_{0xBADC0DEDull};
  // Running 1-bit ratios feeding DB and MB padding.
  uint64_t seen_ones_ = 0;
  uint64_t seen_bits_ = 0;
  bool bootstrapped_ = false;
  // Retrain-failure backoff state.
  uint64_t retrain_cooldown_ = 0;
  uint32_t retrain_failures_in_row_ = 0;
  // Background retraining: the retrainer plus the double-buffered model.
  // clusterer_ always points at the serving model: the borrowed original
  // at generation 0, then owned_clusterer_. The previous generation is
  // parked in retired_clusterer_ until the next swap (callers holding
  // references across one Place are safe).
  std::unique_ptr<BackgroundRetrainer> bg_;
  std::unique_ptr<placement::ContentClusterer> owned_clusterer_;
  std::unique_ptr<placement::ContentClusterer> retired_clusterer_;
  uint64_t model_generation_ = 0;
  // Write-path inference scratch (see ml/inference.h): owned by the
  // engine, reused across every Place/PlaceMany/Release, allocation-free
  // once warm.
  ml::InferenceScratch scratch_;
  // Scratch write outcome for PlaceAt/WriteAt: its stored image reuses
  // its heap capacity, so steady-state placements never allocate
  // (guarded by the engine's single-caller contract above).
  nvm::WriteResult write_scratch_;
  // Reused buffer for Release's memo-miss content peeks and the
  // memory-based padding sample (same single-caller contract as the
  // scratches above).
  BitVector peek_scratch_;
  // Model-width image of a narrow Place (ModelImage), and the
  // merged segment image of a narrow write (MergeWriteInto): both reuse
  // their capacity, so narrow PUTs stay off the heap too.
  BitVector pad_scratch_;
  BitVector merge_scratch_;
  // Incremental learning (§16): the replay ring of committed segment
  // images (capacity 0 unless configured) and the reused mini-batch
  // bit rows RefineStep copies ring rows into.
  ReplayRing ring_;
  ml::BitRows refine_in_;
  // placed_cluster_[addr - first_segment]: cluster the serving model
  // assigned to the full-width value most recently placed at addr, or -1
  // when unknown. Lets Release recycle the address without re-encoding
  // the content (the content IS that value, and the model is unchanged).
  // Invalidated wholesale on any model change (Bootstrap/Retrain/shadow
  // swap) and per-address on WriteAt and narrow placements.
  std::vector<int32_t> placed_cluster_;
};

}  // namespace e2nvm::core

#endif  // E2NVM_CORE_PLACEMENT_ENGINE_H_

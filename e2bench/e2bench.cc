// e2bench: the seeded end-to-end and per-layer benchmark of E2-NVM.
//
//   e2bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--count-ops <n>] [--setup-reps <n>] [--trace-out <path>]
//
// One run = one workload on one seed. It sets the store up
// --setup-reps times (seed, bootstrap training, load phase; the median
// is setup_s) and keeps the last one. The timed phase then issues the
// workload's deterministic op stream from one closed-loop client for
// --seconds seconds. Its first --count-ops operations are the count
// window: flips, energy, wear, retrain and device counts are taken over
// exactly that prefix, so they repeat bit for bit for a fixed seed
// (retrains are drained on trigger, see DrainRetrains). Timings cover
// the whole timed phase, as medians over one-second windows corrected
// to reference host speed (Timing, probe.h).
//
// An in-memory oracle (key -> last acknowledged value) checks every
// returned value and, after the run, the store's whole key set.
//
// With --trace 1 the count window runs untraced as above; after it,
// blocks of kTraceBlock ops alternate between traced (spans around
// every call into a layer, see trace.h) and untraced, until the time is
// up or the span buffer is full. Per-layer timings come from the traced
// blocks, the tracing overhead from the untraced ones next to them.
//
// Output: one JSON object on one line, the full report (see README.md).
// Exit status 1 on any failed or mismatched operation, 2 on bad usage.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/kernels.h"
#include "core/padding.h"
#include "core/sharded_store.h"
#include "e2bench/probe.h"
#include "e2bench/trace.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/ycsb.h"

#ifndef E2BENCH_BUILD_TYPE
#define E2BENCH_BUILD_TYPE "unknown"
#endif

namespace e2bench {
namespace {

using e2nvm::BitVector;
using e2nvm::Status;
using e2nvm::StatusCode;
using e2nvm::core::ShardedStore;
using e2nvm::workload::OpType;
using e2nvm::workload::YcsbGenerator;
using e2nvm::workload::YcsbOp;
using e2nvm::workload::YcsbWorkload;

// One store geometry for every workload: 2 shards x 2048 segments of
// 512 bits, 2048 records, so half the pool is live and free lists stay
// deep.
constexpr size_t kShards = 2;
constexpr size_t kSegmentsPerShard = 2048;
constexpr size_t kBits = 512;
constexpr size_t kClasses = 8;
constexpr uint64_t kRecords = 2048;
constexpr size_t kNetWorkers = 2;
constexpr size_t kNetDepth = 16;
constexpr uint64_t kTraceBlock = 512;
// Length of one timing window (see Timing).
constexpr int64_t kWindowNs = 1'000'000'000;
// Time between two host-speed samples in the timed phase (see Timing),
// and the samples whose median is the host speed just before and just
// after one set-up.
constexpr int64_t kProbeEveryNs = 50'000'000;
constexpr int kSetupProbeSamples = 9;
constexpr size_t kTraceSpans = size_t{1} << 19;
// Deleted keys re-checked (must be absent) after the run.
constexpr uint64_t kDeletedChecks = 4096;

struct Spec {
  const char* name;
  YcsbWorkload mix;
  double churn;
  bool drift;        // Value classes redrawn twice in the count window.
  bool mixed_width;  // Widths {1/4, 1/2, 3/4, 1}, memory-based padding.
  bool incremental;  // Replay-ring refinement (DESIGN.md §16).
  bool net;          // Through src/net instead of in-process calls.
  uint64_t count_ops;
};

constexpr Spec kSpecs[] = {
    {"update_heavy", YcsbWorkload::kA, 0.0, false, false, false, false,
     1000000},
    {"read_mostly", YcsbWorkload::kB, 0.0, false, false, false, false,
     2000000},
    {"churn_drift", YcsbWorkload::kA, 0.25, true, true, true, false,
     150000},
    {"net_pipelined", YcsbWorkload::kA, 0.0, false, false, false, true,
     400000},
};

struct Args {
  const Spec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t count_ops = 0;  // 0 = the workload's default.
  int setup_reps = 3;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2bench: %s\nusage: e2bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--count-ops <n>] "
               "[--setup-reps <n>] [--trace-out <path>]\nworkloads:",
               why);
  for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fputc('\n', stderr);
  std::exit(2);
}

[[noreturn]] void Die(const char* what, const Status& st) {
  std::fprintf(stderr, "e2bench: %s: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      for (const Spec& s : kSpecs) {
        if (std::strcmp(s.name, v) == 0) a.spec = &s;
      }
      if (a.spec == nullptr) Usage("unknown workload");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (flag == "--count-ops") {
      a.count_ops = std::strtoull(v, nullptr, 10);
    } else if (flag == "--setup-reps") {
      a.setup_reps = std::max(1, std::atoi(v));
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.spec == nullptr) Usage("--workload is required");
  if (a.count_ops == 0) a.count_ops = a.spec->count_ops;
  if (a.spec->net) {
    a.count_ops = (a.count_ops + kNetDepth - 1) / kNetDepth * kNetDepth;
  }
  return a;
}

YcsbGenerator::Config GenConfig(const Args& a) {
  YcsbGenerator::Config gc;
  gc.workload = a.spec->mix;
  gc.record_count = kRecords;
  gc.value_bits = kBits;
  gc.num_value_classes = kClasses;
  gc.value_noise = 0.05;
  gc.seed = a.seed;
  gc.zipf_theta = 0.99;
  gc.churn_fraction = a.spec->churn;
  gc.drift_period = a.spec->drift ? a.count_ops / 3 : 0;
  if (a.spec->mixed_width) {
    gc.width_mix = {kBits / 4, kBits / 2, 3 * kBits / 4, kBits};
  }
  return gc;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(int64_t ns) { return static_cast<double>(ns) * 1e-3; }
int64_t PhaseNs(const Args& a) {
  return static_cast<int64_t>(a.seconds * 1e9);
}

/// Folds one generated operation into the count window's stream digest
/// (op type, key and value words), so a test can tell whether two runs
/// issued the same operations.
uint64_t Digest(uint64_t h, const YcsbOp& op, const BitVector& v) {
  auto mix = [&h](uint64_t x) {
    h = (h ^ x) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  };
  mix(static_cast<uint64_t>(op.type));
  mix(op.key);
  for (uint64_t w : v.words()) mix(w);
  return h;
}

// --- Oracle ----------------------------------------------------------------

/// Last acknowledged value of every live key (its size is the width).
/// Values are moved in after the store acknowledges the PUT, so the
/// oracle costs no extra generation.
using Oracle = std::unordered_map<uint64_t, BitVector>;

// --- Set-up ----------------------------------------------------------------

/// Everything one timed phase needs. Declaration order is teardown order
/// reversed: the client disconnects before the server stops, the server
/// stops before the store goes, and the padder outlives the engines
/// that borrow it.
struct Rig {
  std::unique_ptr<e2nvm::core::Padder> padder;
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<e2nvm::net::Server> server;
  std::unique_ptr<e2nvm::net::Client> client;
  std::unique_ptr<YcsbGenerator> gen;
  Oracle oracle;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seed_s = 0, bootstrap_s = 0, load_s = 0;
};

/// Phase-0 class prototypes at full width, so the bootstrap model starts
/// aligned with the value stream.
e2nvm::workload::BitDataset SeedDataset(const Args& a) {
  YcsbGenerator::Config gc = GenConfig(a);
  gc.width_mix.clear();
  YcsbGenerator gen(gc);
  e2nvm::workload::BitDataset ds;
  ds.name = "e2bench-seed";
  ds.dim = kBits;
  for (uint64_t k = 0; k < kRecords; ++k) {
    ds.items.push_back(gen.MakeValue(k, 0));
    ds.labels.push_back(static_cast<int>(k % kClasses));
  }
  return ds;
}

e2nvm::core::ShardedStoreConfig StoreConfig(const Spec& spec) {
  e2nvm::core::ShardedStoreConfig cfg;
  cfg.num_shards = kShards;
  cfg.shard.num_segments = kSegmentsPerShard;
  cfg.shard.segment_bits = kBits;
  cfg.shard.model = e2nvm::bench::DefaultModel(kBits, kClasses);
  cfg.shard.model.pretrain_epochs = 2;
  // Background retraining with drain-on-trigger; the wire workload runs
  // without it, since its worker threads would make swap points depend
  // on scheduling.
  cfg.shard.auto_retrain = !spec.net;
  cfg.shard.background_retrain = !spec.net;
  cfg.shard.retrain.window = 128;
  cfg.shard.retrain.baseline_writes = 128;
  cfg.shard.retrain.degradation_factor = 1.4;
  // The capacity trigger (retrain when a cluster's free list drops below
  // min_free_per_cluster) is off: under churn it fires a full retrain
  // every few hundred to thousand operations at this geometry, turning
  // churn_drift into a seed-dependent retrain storm (README.md, "Known
  // behaviour"). Full retrains come from refinement escalation instead,
  // and drained clusters show as fallback placements
  // (core.address_pool.first_pick_ratio) and min_cluster_free = 0.
  cfg.shard.retrain.min_free_per_cluster = 0;
  if (spec.incremental) {
    cfg.shard.incremental_learning = true;
    cfg.shard.replay_ring_capacity = 128;
    cfg.shard.refine_batch = 8;
    cfg.shard.retrain.refine_interval = 20;
    cfg.shard.retrain.max_refine_rounds = 64;
  }
  cfg.pool_threads = 0;  // Serial ML kernels: deterministic placements.
  cfg.journal = true;
  cfg.journal_capacity = 4096;
  return cfg;
}

/// Sum of background retrain launches across shards (read by the one
/// client thread; the retrainer threads never touch engine stats).
uint64_t RetrainLaunches(ShardedStore& store) {
  uint64_t n = 0;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    n += store.shard(s).engine().stats().background_retrains;
  }
  return n;
}

/// Drain-on-trigger: when the last operation launched a background
/// retrain, waits for it and adopts the model before the next operation,
/// so swap points depend on the seed alone. Adds the time spent to
/// `*wait_s`.
void DrainRetrains(ShardedStore& store, uint64_t* launches, Tracer& tr,
                   uint64_t op, double* wait_s) {
  const uint64_t now = RetrainLaunches(store);
  if (now == *launches) return;
  *launches = now;
  const int64_t start = NowNs();
  ScopedSpan span(tr, kSpanRetrainWait, op);
  for (size_t s = 0; s < store.num_shards(); ++s) {
    while (store.shard(s).engine().RetrainInFlight()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  store.PumpRetrains();
  *wait_s += Seconds(NowNs() - start);
}

std::unique_ptr<Rig> Setup(const Args& a, Tracer& tr) {
  auto rig = std::make_unique<Rig>();
  Rig& r = *rig;
  Tracer untraced(0);  // Load-phase drains are not part of the trace.
  int64_t t = NowNs();
  {
    ScopedSpan span(tr, kSpanSetupSeed, 0);
    auto store_or = ShardedStore::Create(StoreConfig(*a.spec));
    if (!store_or.ok()) Die("create store", store_or.status());
    r.store = std::move(*store_or);
    r.store->Seed(SeedDataset(a));
  }
  int64_t t1 = NowNs();
  r.seed_s = Seconds(t1 - t);
  {
    ScopedSpan span(tr, kSpanSetupBootstrap, 0);
    if (Status st = r.store->Bootstrap(); !st.ok()) Die("bootstrap", st);
  }
  t = NowNs();
  r.bootstrap_s = Seconds(t - t1);

  ScopedSpan load_span(tr, kSpanSetupLoad, 0);
  if (a.spec->mixed_width) {
    r.padder = std::make_unique<e2nvm::core::Padder>(
        e2nvm::core::PadType::kMemoryBased,
        e2nvm::core::PadLocation::kEnd, kBits);
    for (size_t s = 0; s < r.store->num_shards(); ++s) {
      r.store->shard(s).engine().SetPadder(r.padder.get(), nullptr);
    }
  }
  r.gen = std::make_unique<YcsbGenerator>(GenConfig(a));
  r.oracle.reserve(kRecords * 2);
  if (!a.spec->net) {
    uint64_t launches = RetrainLaunches(*r.store);
    double wait_s = 0;  // Part of load_s.
    for (uint64_t k = 0; k < kRecords; ++k) {
      BitVector v = r.gen->MakeValue(k, 0);
      ++r.attempted;
      if (r.store->Put(k, v).ok()) {
        r.oracle[k] = std::move(v);
      } else {
        ++r.failed;
      }
      DrainRetrains(*r.store, &launches, untraced, k, &wait_s);
    }
  } else {
    e2nvm::net::ServerConfig scfg;
    scfg.num_workers = kNetWorkers;
    auto server_or = e2nvm::net::Server::Start(r.store.get(), scfg);
    if (!server_or.ok()) Die("start server", server_or.status());
    r.server = std::move(*server_or);
    auto client_or = e2nvm::net::Client::Connect(r.server->port());
    if (!client_or.ok()) Die("connect", client_or.status());
    r.client = std::move(*client_or);
    // Preload through MULTI_PUT frames of kNetDepth entries.
    std::vector<std::pair<uint64_t, BitVector>> kvs;
    for (uint64_t k = 0; k < kRecords; ++k) {
      kvs.emplace_back(k, r.gen->MakeValue(k, 0));
      if (kvs.size() < kNetDepth && k + 1 < kRecords) continue;
      r.client->QueueMultiPut(kvs.data(), kvs.size());
      if (Status st = r.client->Flush(); !st.ok()) Die("flush", st);
      auto resp = r.client->ReadResponse();
      if (!resp.ok()) Die("read response", resp.status());
      r.attempted += kvs.size();
      if (resp->status == e2nvm::net::WireStatus::kOk) {
        for (auto& kv : kvs) r.oracle[kv.first] = std::move(kv.second);
      } else {
        r.failed += kvs.size();
      }
      kvs.clear();
    }
  }
  r.load_s = Seconds(NowNs() - t);
  return rig;
}

// --- Counters at phase boundaries ------------------------------------------

struct Counts {
  ShardedStore::Snapshot snap;
  e2nvm::nvm::EnergyTotals energy;
  std::vector<uint64_t> seg_writes;
  size_t min_cluster_free = SIZE_MAX;
  size_t dap_bytes = 0;
  e2nvm::net::WireStats wire;
};

/// Reads every counter through the public snapshot and stat accessors.
/// The caller guarantees no operation is in flight.
Counts Capture(Rig& r) {
  Counts c;
  c.snap = r.store->TakeSnapshot();
  c.energy = r.store->meter().Snapshot();
  c.seg_writes = r.store->device().segment_write_counts();
  for (size_t s = 0; s < r.store->num_shards(); ++s) {
    const auto& pool = r.store->shard(s).engine().pool();
    c.min_cluster_free = std::min(c.min_cluster_free, pool.MinClusterFree());
    c.dap_bytes += pool.MemoryFootprintBytes();
  }
  if (r.client != nullptr) {
    auto stats = r.client->Stats();
    if (!stats.ok()) Die("stats", stats.status());
    c.wire = *stats;
  }
  return c;
}

// --- Report ----------------------------------------------------------------

double Ratio(double num, double den) {
  return den != 0 ? num / den : std::nan("");
}

double Median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Quantiles {
  double p50, p99, p999;
};

/// p50 / p99 / p99.9 of latencies `us` (sorted in place) by the shared
/// bench::SummarizeLatencies convention; NaN where fewer than 10 samples
/// lie beyond the percentile.
Quantiles Summarize(std::vector<double>& us) {
  const size_t n = us.size();
  const e2nvm::bench::TailStats t =
      e2nvm::bench::SummarizeLatencies(us, 1.0, n);
  auto defined = [n](size_t index) { return n > index + 10; };
  auto index = [n](double q) {
    return static_cast<size_t>(q * static_cast<double>(n - 1));
  };
  const double nan = std::nan("");
  if (n == 0) return {nan, nan, nan};
  return {defined(n / 2) ? t.p50_us : nan,
          defined(index(0.99)) ? t.p99_us : nan,
          defined(index(0.999)) ? t.p999_us : nan};
}

/// The metrics of one report section. A value that is not finite is
/// written as null; `samples` (when >= 0) is printed beside it.
class Report {
 public:
  void Add(std::string name, double v, const char* unit,
           int64_t samples = -1) {
    list_.push_back({std::move(name), v, unit, samples});
  }

  void Write(std::FILE* f, const char* key) const {
    std::fprintf(f, "\"%s\": {", key);
    for (size_t i = 0; i < list_.size(); ++i) {
      const Metric& m = list_[i];
      std::fprintf(f, "%s\"%s\": {\"value\": ", i ? ", " : "",
                   m.name.c_str());
      if (std::isfinite(m.value)) {
        std::fprintf(f, "%.17g", m.value);
      } else {
        std::fputs("null", f);
      }
      std::fprintf(f, ", \"unit\": \"%s\"", m.unit);
      if (m.samples >= 0) {
        std::fprintf(f, ", \"samples\": %lld",
                     static_cast<long long>(m.samples));
      }
      std::fputc('}', f);
    }
    std::fputc('}', f);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
    int64_t samples;
  };
  std::vector<Metric> list_;
};

/// Client-side timing of the timed phase, cut into windows of equal
/// length. Every kProbeEveryNs the workload pauses for a host-speed
/// sample (HostProbe), which is not counted as workload time. Each
/// closed window keeps its own rate, PUT/GET percentiles and host speed
/// (the median of its samples). A run reports the median over its
/// windows of each figure corrected to reference host speed (a rate
/// divided by the window's speed, a latency multiplied by it), so a
/// slow spell of the host or one noisy second does not move it; the
/// uncorrected medians are reported as raw_*.
class Timing {
  static constexpr const char* kColumns[] = {
      "ops_per_s",  "put_p50_us", "put_p99_us",
      "put_p999_us", "get_p50_us", "get_p99_us", "host_speed"};
  static constexpr size_t kNumColumns = std::size(kColumns);
  static constexpr size_t kSpeed = kNumColumns - 1;

 public:
  Timing() {
    // The sample buffers are touched in full up front and never regrow
    // (a window closes early when one fills), so peak RSS does not
    // depend on how many operations a run managed.
    put.assign(kMaxSamples, 0.0);
    put.clear();
    get.assign(kMaxSamples, 0.0);
    get.clear();
  }

  /// Starts a phase of `phase_ns`, cut into windows of `window_ns`.
  void Start(int64_t phase_ns, int64_t window_ns) {
    phase_ns_ = phase_ns;
    window_ns_ = window_ns;
    start_ = NowNs();
  }

  /// Called before each operation with the number done so far: closes
  /// the open window when its time is up or a sample buffer is full.
  /// True once the phase is over: its time is up and the count window is
  /// complete.
  bool Tick(uint64_t ops, bool counted) {
    int64_t now = NowNs();
    if (now - last_probe_ >= kProbeEveryNs) {
      speed_.push_back(probe_.Sample());
      const int64_t after = NowNs();
      start_ += after - now;  // The sample is not workload time.
      now = last_probe_ = after;
    }
    if (now - start_ < window_ns_ && put.size() < kMaxSamples &&
        get.size() < kMaxSamples) {
      return false;
    }
    Close(now, ops);
    return counted && timed_ns_ >= phase_ns_;
  }

  /// Closes a partly filled last window (a traced run stopped early).
  void Finish(uint64_t ops) {
    if (ops > window_start_ops_) Close(NowNs(), ops);
  }

  double seconds() const { return Seconds(timed_ns_); }

  /// ops_per_s and the PUT/GET percentiles corrected to reference
  /// host speed, then host_speed and the uncorrected raw_* figures:
  /// each the median over the windows where it is defined (null unless
  /// that is at least half of them), with the total sample count.
  void AddTo(Report& rep) const {
    for (bool raw : {false, true}) {
      for (size_t c = 0; c < kSpeed; ++c) {
        std::vector<double> v;
        for (const auto& w : win_) {
          if (!std::isfinite(w[c])) continue;
          v.push_back(raw      ? w[c]
                      : c == 0 ? w[c] / w[kSpeed]
                               : w[c] * w[kSpeed]);
        }
        const double median =
            2 * v.size() >= win_.size() ? Median(v) : std::nan("");
        const std::string name =
            std::string(raw ? "raw_" : "") + kColumns[c];
        if (c == 0) {
          rep.Add(name, median, "1/s");
        } else {
          rep.Add(name, median, "us", c <= 3 ? put_n_ : get_n_);
        }
      }
      if (!raw) {
        std::vector<double> v;
        for (const auto& w : win_) v.push_back(w[kSpeed]);
        rep.Add(kColumns[kSpeed], Median(v), "1");
      }
    }
  }

  /// Every window's figures: {"ops_per_s": [...], "put_p50_us": ...}.
  void WriteWindows(std::FILE* f) const {
    std::fputc('{', f);
    for (size_t c = 0; c < kNumColumns; ++c) {
      std::fprintf(f, "%s\"%s\": [", c ? ", " : "", kColumns[c]);
      for (size_t i = 0; i < win_.size(); ++i) {
        if (std::isfinite(win_[i][c])) {
          std::fprintf(f, "%s%.6g", i ? ", " : "", win_[i][c]);
        } else {
          std::fprintf(f, "%snull", i ? ", " : "");
        }
      }
      std::fputc(']', f);
    }
    std::fputc('}', f);
  }

  // The open window's latency samples, in microseconds.
  std::vector<double> put, get;

 private:
  /// Closes the open window at `now` after `ops` operations in total and
  /// starts the next one; the percentile work is not timed.
  void Close(int64_t now, uint64_t ops) {
    const double s = Seconds(now - start_);
    timed_ns_ += now - start_;
    put_n_ += static_cast<int64_t>(put.size());
    get_n_ += static_cast<int64_t>(get.size());
    const Quantiles p = Summarize(put);
    const Quantiles g = Summarize(get);
    if (speed_.empty()) speed_.push_back(probe_.Sample());
    win_.push_back({static_cast<double>(ops - window_start_ops_) / s, p.p50,
                    p.p99, p.p999, g.p50, g.p99, Median(speed_)});
    speed_.clear();
    put.clear();
    get.clear();
    window_start_ops_ = ops;
    start_ = NowNs();
  }

  // Room for a window's samples of one kind: 2M doubles (16 MiB).
  static constexpr size_t kMaxSamples = size_t{1} << 21;

  HostProbe probe_;
  int64_t last_probe_ = 0;
  std::vector<double> speed_;  // The open window's host-speed samples.
  std::vector<std::array<double, kNumColumns>> win_;
  int64_t put_n_ = 0, get_n_ = 0;
  uint64_t window_start_ops_ = 0;
  int64_t phase_ns_ = 0;
  int64_t window_ns_ = 0;
  int64_t start_ = 0;
  int64_t timed_ns_ = 0;  // Sum of the closed windows' lengths.
};

// --- Timed phase -----------------------------------------------------------

struct Phase {
  uint64_t ops = 0;
  uint64_t puts = 0, gets = 0, deletes = 0;  // Inside the count window.
  uint64_t digest = 0;                       // Ditto, see Digest().
  double wait_s = 0;  // Retrain drain time in the count window.
  Timing timing;  // Untraced operations of the whole phase.
  // Trace mode, after the count window: PUT latency as the client sees
  // it in traced and in untraced blocks (the tracing overhead).
  std::vector<double> put_traced, put_untraced;
  Counts c0, c1;                // Count-window boundaries.
  uint64_t probe_failures = 0;
};

/// Chooses whether the op at `i` runs traced; returns false when the
/// traced phase is over (span buffer full).
bool UpdateTracing(const Args& a, Tracer& tr, uint64_t i, bool counted) {
  if (!a.trace || !counted) {
    tr.set_enabled(false);
    return true;
  }
  if (tr.full()) return false;
  tr.set_enabled(((i - a.count_ops) / kTraceBlock) % 2 == 0);
  return true;
}

void RunInProcess(const Args& a, Rig& r, Tracer& tr, Phase* ph) {
  ShardedStore& store = *r.store;
  YcsbGenerator& gen = *r.gen;
  std::unordered_map<uint64_t, uint32_t> versions;
  for (const auto& kv : r.oracle) versions[kv.first] = 0;
  BitVector scratch(kBits);
  uint64_t launches = RetrainLaunches(store);
  double wait_after_window_s = 0;  // Not reported.

  ph->c0 = Capture(r);
  Timing& timing = ph->timing;
  timing.Start(PhaseNs(a), std::min(kWindowNs, PhaseNs(a)));
  bool counted = false;
  uint64_t i = 0;
  for (;; ++i) {
    if (i == a.count_ops) {
      ph->c1 = Capture(r);
      counted = true;
    }
    if (timing.Tick(i, counted)) break;
    if (!UpdateTracing(a, tr, i, counted)) break;
    const bool traced = tr.enabled();
    ScopedSpan op_span(tr, kSpanOp, i);
    YcsbOp op;
    BitVector v;
    {
      ScopedSpan span(tr, kSpanGen, i);
      op = gen.Next();
      if (op.type == OpType::kUpdate) {
        v = gen.MakeValue(op.key, ++versions[op.key]);
      } else if (op.type == OpType::kInsert) {
        versions[op.key] = 0;
        v = gen.MakeValue(op.key, 0);
      }
    }
    if (!counted) ph->digest = Digest(ph->digest, op, v);
    ++r.attempted;
    switch (op.type) {
      case OpType::kRead: {
        int64_t t = NowNs();
        Status st;
        {
          ScopedSpan span(tr, kSpanGet, i);
          st = store.GetInto(op.key, &scratch);
        }
        t = NowNs() - t;
        if (!traced) timing.get.push_back(Micros(t));
        if (!counted) ++ph->gets;
        ScopedSpan span(tr, kSpanCheck, i);
        auto it = r.oracle.find(op.key);
        if (!st.ok() || it == r.oracle.end() || !(it->second == scratch)) {
          ++r.failed;
        }
        break;
      }
      case OpType::kUpdate:
      case OpType::kInsert: {
        int64_t t = NowNs();
        Status st;
        {
          ScopedSpan span(tr, kSpanPut, i);
          st = store.Put(op.key, v);
        }
        t = NowNs() - t;
        if (!traced) timing.put.push_back(Micros(t));
        if (counted && a.trace) {
          (traced ? ph->put_traced : ph->put_untraced).push_back(Micros(t));
        }
        if (!counted) ++ph->puts;
        if (traced) {
          // The predict probe: the model's cluster for this value, timed
          // outside the put span (it charges CPU energy, which is why
          // the traced run's energy counts are not reported).
          ScopedSpan span(tr,
                          v.size() < kBits ? kSpanPredictNarrow
                                           : kSpanPredictFull,
                          i);
          auto& engine = store.shard(store.ShardOf(op.key)).engine();
          if (!engine.PredictClusterFor(v).ok()) ++ph->probe_failures;
        }
        if (st.ok()) {
          r.oracle[op.key] = std::move(v);
        } else {
          ++r.failed;
        }
        break;
      }
      case OpType::kDelete: {
        Status st;
        {
          ScopedSpan span(tr, kSpanDelete, i);
          st = store.Delete(op.key);
        }
        if (!counted) ++ph->deletes;
        versions.erase(op.key);
        if (!st.ok() || r.oracle.erase(op.key) != 1) ++r.failed;
        break;
      }
      case OpType::kScan:
      case OpType::kReadModifyWrite:
        ++r.failed;  // Not part of any workload here.
        break;
    }
    DrainRetrains(store, &launches, tr, i,
                  counted ? &wait_after_window_s : &ph->wait_s);
  }
  timing.Finish(i);  // A traced run can stop early (span buffer full).
  tr.set_enabled(false);
  ph->ops = i;
}

void RunNet(const Args& a, Rig& r, Tracer& tr, Phase* ph) {
  using e2nvm::net::WireStatus;
  YcsbGenerator& gen = *r.gen;
  e2nvm::net::Client& client = *r.client;
  std::unordered_map<uint64_t, uint32_t> versions;
  for (const auto& kv : r.oracle) versions[kv.first] = 0;

  // Per burst slot: send time, whether it is a PUT, and for a GET the
  // value the oracle expects (copied at queue time: a later PUT in the
  // same burst may change the oracle).
  std::vector<int64_t> sent(kNetDepth);
  std::vector<uint8_t> is_put(kNetDepth);
  std::vector<BitVector> expected(kNetDepth, BitVector(kBits));
  std::vector<uint8_t> has_expected(kNetDepth);

  ph->c0 = Capture(r);
  Timing& timing = ph->timing;
  timing.Start(PhaseNs(a), std::min(kWindowNs, PhaseNs(a)));
  bool counted = false;
  uint64_t done = 0;
  for (;;) {
    if (done == a.count_ops) {
      ph->c1 = Capture(r);
      counted = true;
    }
    if (timing.Tick(done, counted)) break;
    if (!UpdateTracing(a, tr, done, counted)) break;
    const bool traced = tr.enabled();
    const uint64_t burst_id = done / kNetDepth;
    ScopedSpan burst_span(tr, kSpanBurst, burst_id);
    for (size_t j = 0; j < kNetDepth; ++j) {
      YcsbOp op;
      BitVector v;
      {
        ScopedSpan span(tr, kSpanGen, done + j);
        op = gen.Next();
        if (op.type == OpType::kUpdate) {
          v = gen.MakeValue(op.key, ++versions[op.key]);
        }
      }
      if (!counted) ph->digest = Digest(ph->digest, op, v);
      sent[j] = NowNs();
      if (op.type == OpType::kUpdate) {
        client.QueuePut(op.key, v);
        r.oracle[op.key] = std::move(v);
        is_put[j] = 1;
        if (!counted) ++ph->puts;
      } else {
        client.QueueGet(op.key);
        is_put[j] = 0;
        auto it = r.oracle.find(op.key);
        has_expected[j] = it != r.oracle.end();
        if (has_expected[j]) expected[j] = it->second;
        if (!counted) ++ph->gets;
      }
    }
    {
      ScopedSpan span(tr, kSpanFlush, burst_id);
      if (Status st = client.Flush(); !st.ok()) Die("flush", st);
    }
    for (size_t j = 0; j < kNetDepth; ++j) {
      auto resp = [&] {
        ScopedSpan span(tr, kSpanReadWait, done + j);
        return client.ReadResponse();
      }();
      if (!resp.ok()) Die("read response", resp.status());
      const int64_t t = NowNs() - sent[j];
      ++r.attempted;
      if (!traced) {
        (is_put[j] ? timing.put : timing.get).push_back(Micros(t));
      }
      if (is_put[j] && counted && a.trace) {
        (traced ? ph->put_traced : ph->put_untraced).push_back(Micros(t));
      }
      ScopedSpan span(tr, kSpanCheck, done + j);
      if (resp->status != WireStatus::kOk) {
        ++r.failed;
      } else if (!is_put[j]) {
        const BitVector& want = expected[j];
        const size_t bytes = e2nvm::net::ValueWireBytes(want.size());
        if (!has_expected[j] || resp->value.bits != want.size() ||
            std::memcmp(resp->value.words, want.words().data(), bytes) !=
                0) {
          ++r.failed;
        }
      }
    }
    done += kNetDepth;
  }
  timing.Finish(done);
  tr.set_enabled(false);
  ph->ops = done;
}

/// After the run: the store holds exactly the oracle's keys with the
/// oracle's values, and the most recently deleted keys are gone.
void VerifyFinalState(Rig& r) {
  ShardedStore& store = *r.store;
  ++r.attempted;
  if (store.size() != r.oracle.size()) ++r.failed;
  BitVector scratch(kBits);
  for (const auto& [key, want] : r.oracle) {
    ++r.attempted;
    if (!store.GetInto(key, &scratch).ok() || !(scratch == want)) {
      ++r.failed;
    }
  }
  const uint64_t oldest = r.gen->oldest_live();
  for (uint64_t k = oldest > kDeletedChecks ? oldest - kDeletedChecks : 0;
       k < oldest; ++k) {
    ++r.attempted;
    if (store.GetInto(k, &scratch).code() != StatusCode::kNotFound) {
      ++r.failed;
    }
  }
}

// --- Metrics ---------------------------------------------------------------

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Count metrics over the count window [c0, c1]. Shared by both modes:
/// end-to-end energy/flip/wear figures and the per-layer counts.
struct WindowCounts {
  double flips_per_bit = 0, pj_per_put = 0, wear_max_over_mean = 0;
  // Energy split per user PUT (and reads per GET); floor + flip + line
  // must equal the meter's PMem-write delta.
  double floor_pj = 0, flip_pj = 0, line_pj = 0, cpu_pj = 0, dram_pj = 0;
  double read_pj_per_get = 0;
  bool energy_split_ok = false;
};

WindowCounts ComputeWindow(const Phase& ph, ShardedStore& store) {
  using e2nvm::nvm::EnergyDomain;
  const auto& d0 = ph.c0.snap.device;
  const auto& d1 = ph.c1.snap.device;
  const auto& p = store.device().config().pcm;
  const double puts = static_cast<double>(ph.puts);
  WindowCounts w;
  w.flips_per_bit = Ratio(
      static_cast<double>(d1.total_bits_flipped() - d0.total_bits_flipped()),
      static_cast<double>(d1.logical_bits_written - d0.logical_bits_written));
  auto domain = [&](EnergyDomain dom) {
    return ph.c1.energy.DomainPj(dom) - ph.c0.energy.DomainPj(dom);
  };
  const double write_pj = domain(EnergyDomain::kPmemWrite);
  const double cpu_pj = domain(EnergyDomain::kCpuModel);
  const double dram_pj = domain(EnergyDomain::kDram);
  w.pj_per_put = Ratio(write_pj + cpu_pj + dram_pj, puts);
  const double floor =
      static_cast<double>(d1.writes - d0.writes) * p.request_overhead_pj;
  const double flip =
      static_cast<double>(d1.set_transitions - d0.set_transitions) *
          p.set_energy_pj +
      static_cast<double>(d1.reset_transitions - d0.reset_transitions) *
          p.reset_energy_pj +
      static_cast<double>(d1.aux_bits_flipped - d0.aux_bits_flipped) *
          p.set_energy_pj;
  const double line =
      static_cast<double>(d1.dirty_lines - d0.dirty_lines) *
      p.line_overhead_pj;
  w.energy_split_ok =
      std::fabs(floor + flip + line - write_pj) <=
      1e-9 * std::max(1.0, std::fabs(write_pj));
  w.floor_pj = Ratio(floor, puts);
  w.flip_pj = Ratio(flip, puts);
  w.line_pj = Ratio(line, puts);
  w.cpu_pj = Ratio(cpu_pj, puts);
  w.dram_pj = Ratio(dram_pj, puts);
  w.read_pj_per_get = Ratio(domain(EnergyDomain::kPmemRead),
                            static_cast<double>(ph.gets));
  uint64_t max_w = 0, sum_w = 0;
  for (size_t s = 0; s < ph.c1.seg_writes.size(); ++s) {
    const uint64_t dw = ph.c1.seg_writes[s] - ph.c0.seg_writes[s];
    max_w = std::max(max_w, dw);
    sum_w += dw;
  }
  w.wear_max_over_mean =
      Ratio(static_cast<double>(max_w) * ph.c1.seg_writes.size(),
            static_cast<double>(sum_w));
  return w;
}

void AddEndToEnd(Report& rep, Phase& ph, const WindowCounts& w,
                 const std::vector<double>& setup_s,
                 const std::vector<double>& raw_setup_s, const Rig& rig) {
  rep.Add("setup_s", Median(setup_s), "s");
  rep.Add("raw_setup_s", Median(raw_setup_s), "s");
  ph.timing.AddTo(rep);
  rep.Add("flips_per_bit", w.flips_per_bit, "1");
  rep.Add("pj_per_put", w.pj_per_put, "pJ");
  rep.Add("wear_max_over_mean", w.wear_max_over_mean, "1");
  rep.Add("failed_ratio",
          Ratio(static_cast<double>(rig.failed),
                static_cast<double>(rig.attempted)),
          "1");
  rep.Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(Report& rep, const Args& a, Phase& ph,
                 const WindowCounts& w, const Tracer& tr,
                 const std::vector<double>& seed_s,
                 const std::vector<double>& bootstrap_s,
                 const std::vector<double>& load_s) {
  const auto& e0 = ph.c0.snap.engine;
  const auto& e1 = ph.c1.snap.engine;
  const auto& d0 = ph.c0.snap.device;
  const auto& d1 = ph.c1.snap.device;
  const double puts = static_cast<double>(ph.puts);
  auto delta = [](uint64_t x1, uint64_t x0) {
    return static_cast<double>(x1 - x0);
  };

  // Span durations by name (traced blocks only).
  std::vector<std::vector<double>> span_us(kNumSpanNames);
  for (size_t i = 0; i < tr.size(); ++i) {
    const Tracer::Span& s = tr.span(i);
    span_us[s.name].push_back(Micros(s.end_ns - s.start_ns));
  }
  auto span_p50 = [&rep](const char* name, std::vector<double>& us) {
    const size_t n = us.size();
    rep.Add(name, Summarize(us).p50, "us", static_cast<int64_t>(n));
  };

  std::vector<double> predict = span_us[kSpanPredictFull];
  predict.insert(predict.end(), span_us[kSpanPredictNarrow].begin(),
                 span_us[kSpanPredictNarrow].end());
  span_p50("core.placement_engine.predict_us", predict);
  rep.Add("core.placement_engine.predict_flops_per_put",
          Ratio(e1.predict_flops - e0.predict_flops, puts), "flop");
  span_p50("core.placement_engine.predict_full_us", span_us[kSpanPredictFull]);
  span_p50("core.padding.predict_narrow_us", span_us[kSpanPredictNarrow]);
  rep.Add("core.placement_engine.release_memo_hit_ratio",
          Ratio(delta(e1.release_cluster_hits, e0.release_cluster_hits),
                delta(e1.releases, e0.releases)),
          "1");
  rep.Add("core.address_pool.first_pick_ratio",
          1.0 - Ratio(delta(e1.fallback_placements, e0.fallback_placements),
                      delta(e1.placements, e0.placements)),
          "1");
  rep.Add("core.address_pool.min_cluster_free",
          static_cast<double>(ph.c1.min_cluster_free), "count");
  rep.Add("core.address_pool.footprint_bytes",
          static_cast<double>(ph.c1.dap_bytes), "B");
  rep.Add("core.retrain.full", delta(e1.retrains, e0.retrains), "count");
  rep.Add("core.retrain.background",
          delta(e1.background_retrains, e0.background_retrains), "count");
  rep.Add("core.retrain.refine_steps",
          delta(e1.refine_steps, e0.refine_steps), "count");
  rep.Add("core.retrain.train_flops", e1.train_flops - e0.train_flops,
          "flop");
  rep.Add("core.retrain.swap_repredictions",
          delta(e1.swap_repredictions, e0.swap_repredictions), "count");
  rep.Add("core.retrain.wait_s", ph.wait_s, "s");
  rep.Add("core.shard_journal.checkpoints",
          delta(ph.c1.snap.journal_checkpoints,
                ph.c0.snap.journal_checkpoints),
          "count");
  rep.Add("nvm.writes_per_put", Ratio(delta(d1.writes, d0.writes), puts),
          "count");
  rep.Add("nvm.data_flips_per_put",
          Ratio(delta(d1.data_bits_flipped, d0.data_bits_flipped), puts),
          "bit");
  rep.Add("nvm.aux_flips_per_put",
          Ratio(delta(d1.aux_bits_flipped, d0.aux_bits_flipped), puts),
          "bit");
  rep.Add("nvm.dirty_lines_per_put",
          Ratio(delta(d1.dirty_lines, d0.dirty_lines), puts), "count");
  rep.Add("nvm.reads_per_get",
          Ratio(delta(d1.reads, d0.reads), static_cast<double>(ph.gets)),
          "count");
  rep.Add("nvm.verify_retries", delta(d1.verify_retries, d0.verify_retries),
          "count");
  rep.Add("nvm.energy.floor_pj_per_put", w.floor_pj, "pJ");
  rep.Add("nvm.energy.flip_pj_per_put", w.flip_pj, "pJ");
  rep.Add("nvm.energy.line_pj_per_put", w.line_pj, "pJ");
  rep.Add("nvm.energy.cpu_model_pj_per_put", w.cpu_pj, "pJ");
  rep.Add("nvm.energy.dram_pj_per_put", w.dram_pj, "pJ");
  rep.Add("nvm.energy.read_pj_per_get", w.read_pj_per_get, "pJ");
  span_p50("core.store.put_us", span_us[kSpanPut]);
  span_p50("core.store.get_us", span_us[kSpanGet]);
  span_p50("core.store.delete_us", span_us[kSpanDelete]);
  span_p50("net.flush_us", span_us[kSpanFlush]);
  span_p50("net.read_wait_us", span_us[kSpanReadWait]);
  rep.Add("net.batch_size",
          a.spec->net ? Ratio(delta(ph.c1.wire.batched_puts,
                                    ph.c0.wire.batched_puts),
                              delta(ph.c1.wire.batches, ph.c0.wire.batches))
                      : 0.0,
          "count");
  rep.Add("net.frames_rejected",
          delta(ph.c1.wire.frames_rejected, ph.c0.wire.frames_rejected),
          "count");
  rep.Add("setup.seed_s", Median(seed_s), "s");
  rep.Add("setup.bootstrap_s", Median(bootstrap_s), "s");
  rep.Add("setup.load_s", Median(load_s), "s");
  span_p50("workload.gen_us", span_us[kSpanGen]);
  // PUT p50 in traced blocks over PUT p50 in the untraced blocks
  // interleaved with them, both timed by the client.
  double overhead = std::nan("");
  if (!ph.put_traced.empty() && !ph.put_untraced.empty()) {
    overhead = Median(ph.put_traced) / Median(ph.put_untraced);
  }
  rep.Add("trace.overhead_put_p50", overhead, "1");
}

/// Restricts the calling thread, and every thread it starts from now
/// on, to the vCPU it runs on. Returns that CPU, or -1 on failure.
int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

/// The number of CPUs the calling thread may run on, or -1.
int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
}

std::string Environment(const Args& a, int cpus, int pinned_cpu) {
  double load[1] = {-1};
  getloadavg(load, 1);
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %d, \"hardware_concurrency\": %u, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"loadavg_1m\": %.2f, "
      "\"threads\": %zu, \"pinned_cpu\": %d}",
      cpus, std::thread::hardware_concurrency(),
      e2nvm::SimdLevelName(e2nvm::ActiveSimdLevel()), E2BENCH_BUILD_TYPE,
      __VERSION__, load[0], a.spec->net ? kNetWorkers + 2 : size_t{2},
      pinned_cpu);
  return buf;
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  // The wire workload's client and server threads share one vCPU, so a
  // request's round trip is a local context switch rather than a
  // wake-up of another, possibly idle, vCPU (see README.md).
  const int cpus = UsableCpus();
  const int pinned_cpu = a.spec->net ? PinToCurrentCpu() : -1;
  const std::string env = Environment(a, cpus, pinned_cpu);
  Tracer tr(a.trace ? kTraceSpans : 0);

  // Set up --setup-reps times; keep the last rig. Each set-up is
  // corrected to reference host speed by the host's speed just before
  // and just after it (see Timing).
  std::vector<double> setup_s, raw_setup_s, seed_s, bootstrap_s, load_s;
  std::unique_ptr<Rig> rig_ptr;
  HostProbe probe;
  tr.set_enabled(a.trace);
  for (int rep = 0; rep < a.setup_reps; ++rep) {
    rig_ptr.reset();  // Tear the previous rig down first.
    const double before = probe.Speed(kSetupProbeSamples);
    rig_ptr = Setup(a, tr);
    const double after = probe.Speed(kSetupProbeSamples);
    const double speed = std::sqrt(before * after);
    seed_s.push_back(rig_ptr->seed_s);
    bootstrap_s.push_back(rig_ptr->bootstrap_s);
    load_s.push_back(rig_ptr->load_s);
    raw_setup_s.push_back(rig_ptr->seed_s + rig_ptr->bootstrap_s +
                          rig_ptr->load_s);
    setup_s.push_back(raw_setup_s.back() * speed);
  }
  tr.set_enabled(false);
  Rig& rig = *rig_ptr;

  Phase ph;
  if (a.spec->net) {
    RunNet(a, rig, tr, &ph);
    rig.client.reset();
    rig.server->Stop();
  } else {
    RunInProcess(a, rig, tr, &ph);
  }
  VerifyFinalState(rig);
  rig.failed += ph.probe_failures;

  const WindowCounts w = ComputeWindow(ph, *rig.store);
  if (!w.energy_split_ok) {
    std::fprintf(stderr, "e2bench: energy split does not sum to the "
                         "meter's PMem-write total\n");
    ++rig.failed;
  }
  if (a.trace && !a.trace_out.empty() && !tr.Write(a.trace_out.c_str())) {
    std::fprintf(stderr, "e2bench: cannot write %s\n", a.trace_out.c_str());
    ++rig.failed;
  }
  Report e2e, layers;
  AddEndToEnd(e2e, ph, w, setup_s, raw_setup_s, rig);
  AddPerLayer(layers, a, ph, w, tr, seed_s, bootstrap_s, load_s);

  std::FILE* out = stdout;
  std::fprintf(out,
               "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
               "\"trace\": %d, \"count_ops\": %llu, \"setup_reps\": %d, "
               "\"env\": %s, \"ops\": %llu, \"timed_s\": %.6f, "
               "\"window\": {\"puts\": %llu, \"gets\": %llu, "
               "\"deletes\": %llu, \"stream_digest\": \"%016llx\", "
               "\"retrains_before\": %llu}, \"trace_spans\": %zu, "
               "\"attempted\": %llu, \"failed\": %llu, ",
               a.spec->name, static_cast<unsigned long long>(a.seed),
               a.seconds, a.trace ? 1 : 0,
               static_cast<unsigned long long>(a.count_ops), a.setup_reps,
               env.c_str(), static_cast<unsigned long long>(ph.ops),
               ph.timing.seconds(), static_cast<unsigned long long>(ph.puts),
               static_cast<unsigned long long>(ph.gets),
               static_cast<unsigned long long>(ph.deletes),
               static_cast<unsigned long long>(ph.digest),
               static_cast<unsigned long long>(ph.c0.snap.engine.retrains),
               tr.size(),
               static_cast<unsigned long long>(rig.attempted),
               static_cast<unsigned long long>(rig.failed));
  std::fputs("\"windows\": ", out);
  ph.timing.WriteWindows(out);
  std::fputs(", ", out);
  e2e.Write(out, "end_to_end");
  std::fputs(", ", out);
  layers.Write(out, "per_layer");
  std::fputs("}\n", out);
  std::fflush(out);
  return rig.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2bench

int main(int argc, char** argv) { return e2bench::Main(argc, argv); }

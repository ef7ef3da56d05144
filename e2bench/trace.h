#ifndef E2BENCH_TRACE_H_
#define E2BENCH_TRACE_H_

// Span recorder for the traced benchmark run.
//
// A span is one call from the benchmark into a layer's public function:
// a name, start and end (steady-clock nanoseconds), the span that was
// open when it began (its parent), and the id of the request it belongs
// to. Spans land in a buffer allocated once before the run; recording
// never allocates. When the buffer is full, Begin() stops recording and
// full() turns true, so the caller can end the traced phase. Write()
// dumps the buffer as TSV after the run.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace e2bench {

enum SpanName : uint16_t {
  kSpanOp,             // One request, issued and checked by the client.
  kSpanGen,            // YCSB op + value generation.
  kSpanPut,            // ShardedStore::Put.
  kSpanGet,            // ShardedStore::GetInto.
  kSpanDelete,         // ShardedStore::Delete.
  kSpanPredictFull,    // PlacementEngine::PredictClusterFor, full width.
  kSpanPredictNarrow,  // The same probe on a value that needs padding.
  kSpanCheck,          // Oracle comparison of a returned value.
  kSpanRetrainWait,    // Drain: wait for and adopt a background retrain.
  kSpanBurst,          // One pipelined burst over the wire.
  kSpanFlush,          // net::Client::Flush.
  kSpanReadWait,       // net::Client::ReadResponse.
  kSpanSetupSeed,      // ShardedStore::Create + Seed.
  kSpanSetupBootstrap, // ShardedStore::Bootstrap (model training).
  kSpanSetupLoad,      // Load phase (and server start for the wire).
  kNumSpanNames,
};

inline const char* SpanNameString(uint16_t n) {
  static const char* const kNames[kNumSpanNames] = {
      "workload.op",
      "workload.gen",
      "core.store.put",
      "core.store.get",
      "core.store.delete",
      "core.placement_engine.predict_full",
      "core.padding.predict_narrow",
      "bench.check",
      "core.retrain.wait",
      "net.burst",
      "net.flush",
      "net.read_wait",
      "setup.seed",
      "setup.bootstrap",
      "setup.load",
  };
  return n < kNumSpanNames ? kNames[n] : "?";
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Span {
    uint64_t op = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t parent = kNone;
    uint16_t name = 0;
  };

  /// `capacity` spans are allocated now; 0 disables tracing entirely.
  explicit Tracer(size_t capacity) : buf_(capacity) {}

  /// Turns recording on or off between requests (a span never straddles
  /// a switch).
  void set_enabled(bool on) { enabled_ = on && !buf_.empty(); }
  bool enabled() const { return enabled_; }
  bool full() const { return n_ == buf_.size(); }
  size_t size() const { return n_; }
  const Span& span(size_t i) const { return buf_[i]; }

  uint32_t Begin(uint16_t name, uint64_t op) {
    if (!enabled_ || n_ == buf_.size()) return kNone;
    const uint32_t id = static_cast<uint32_t>(n_++);
    Span& s = buf_[id];
    s.op = op;
    s.name = name;
    s.parent = open_;
    s.start_ns = NowNs();
    s.end_ns = s.start_ns;
    open_ = id;
    return id;
  }

  void End(uint32_t id) {
    if (id == kNone) return;
    buf_[id].end_ns = NowNs();
    open_ = buf_[id].parent;
  }

  /// Writes one line per span: id, parent (-1 for a root), op id, name,
  /// start and end in nanoseconds relative to the first span.
  bool Write(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    std::fputs("id\tparent\top\tname\tstart_ns\tend_ns\n", f);
    const int64_t t0 = n_ > 0 ? buf_[0].start_ns : 0;
    for (size_t i = 0; i < n_; ++i) {
      const Span& s = buf_[i];
      std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%lld\t%lld\n", i,
                   s.parent == kNone ? -1LL
                                     : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   SpanNameString(s.name),
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> buf_;
  size_t n_ = 0;
  uint32_t open_ = kNone;
  bool enabled_ = false;
};

/// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, uint16_t name, uint64_t op)
      : t_(t), id_(t.Begin(name, op)) {}
  ~ScopedSpan() { t_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  uint32_t id_;
};

}  // namespace e2bench

#endif  // E2BENCH_TRACE_H_

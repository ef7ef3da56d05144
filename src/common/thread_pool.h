#ifndef E2NVM_COMMON_THREAD_POOL_H_
#define E2NVM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace e2nvm {

/// A fixed-size worker pool with a ParallelFor helper — the concurrency
/// substrate behind the parallel ML kernels and the background retrainer.
///
/// Design constraints (DESIGN.md §8):
///  - no work stealing, one shared FIFO queue: the kernels submit coarse
///    index blocks, so queue contention is negligible and scheduling stays
///    easy to reason about;
///  - ParallelFor partitions an index range into blocks whose count
///    depends only on the range size (never on the thread count), so a
///    reduction that combines per-block partials in block order is
///    deterministic for any pool size;
///  - exceptions thrown by loop bodies are captured and the *first* one
///    (lowest block index) is rethrown on the calling thread;
///  - a ParallelFor issued from inside a worker (nested parallelism) runs
///    the loop inline on that worker instead of deadlocking on the queue;
///  - per-task randomness derives from TaskSeed(base, block), not from
///    any shared RNG, so parallel runs replay bit-for-bit.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. 0 is clamped to 1; a 1-thread pool is
  /// still useful (the background retrainer runs on it), but ParallelFor
  /// degenerates to the serial loop.
  explicit ThreadPool(size_t num_threads);

  /// Drains and joins. Pending tasks are completed before destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues one task. The task must not block on other pool tasks
  /// unless more workers exist than blockers (use ParallelFor for
  /// fork-join work instead).
  void Submit(std::function<void()> task);

  /// Runs body(i) for every i in [begin, end), spread across the pool.
  /// Blocks until all iterations finish (the caller participates in the
  /// work). Rethrows the first exception thrown by any iteration.
  /// `grain` is the minimum iterations per block; the number of blocks is
  /// a pure function of (end - begin, grain), never of num_threads().
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& body);

  /// Block-granular variant: body(block_begin, block_end, block_index).
  /// Preferred for kernels that keep per-block accumulators; combining
  /// the accumulators in block-index order gives results independent of
  /// the pool size.
  void ParallelForBlocks(
      size_t begin, size_t end, size_t grain,
      const std::function<void(size_t, size_t, size_t)>& body);

  /// Number of blocks ParallelFor* will use for a range of `n` items at
  /// `grain` — exposed so callers can pre-size per-block accumulators.
  static size_t NumBlocks(size_t n, size_t grain);

  /// Derives a deterministic seed for task/block `index` from `base`
  /// (SplitMix64 finalizer). Identical across pool sizes and platforms.
  static uint64_t TaskSeed(uint64_t base, uint64_t index);

  /// True when the calling thread is one of this pool's workers.
  bool InWorkerThread() const;

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

/// Runs task(i) once for every i in [0, n) on up to min(n, usable CPUs)
/// threads — the caller plus freshly started ones, each claiming the
/// next unclaimed index — and, once every task has run, returns the
/// first non-OK status in index order (or rethrows the exception of a
/// task that threw, if it comes first). Usable CPUs are the calling
/// thread's affinity mask where the platform reports one, else
/// hardware_concurrency, so a process pinned to one CPU runs everything
/// inline on the caller. Meant for a few coarse, independent jobs (a
/// sharded store's per-shard bootstrap); fine-grained data parallelism
/// belongs on a ThreadPool.
Status RunConcurrently(size_t n, const std::function<Status(size_t)>& task);

}  // namespace e2nvm

#endif  // E2NVM_COMMON_THREAD_POOL_H_

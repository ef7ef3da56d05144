#include "common/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <system_error>

#include "common/lock_audit.h"

namespace e2nvm {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(num_threads, 1);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    // The queue mutex is shared by every pool client: submitting from a
    // steady-state shard operation would be a cross-shard serialization
    // point, so the acquisition is booked with the lock audit.
    debug::AuditedLockGuard lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::InWorkerThread() const {
  std::thread::id self = std::this_thread::get_id();
  for (const auto& t : threads_) {
    if (t.get_id() == self) return true;
  }
  return false;
}

size_t ThreadPool::NumBlocks(size_t n, size_t grain) {
  if (n == 0) return 0;
  grain = std::max<size_t>(grain, 1);
  return (n + grain - 1) / grain;
}

uint64_t ThreadPool::TaskSeed(uint64_t base, uint64_t index) {
  // SplitMix64 finalizer over base + golden-ratio stride — statistically
  // independent streams per block, reproducible on every platform.
  uint64_t z = base + (index + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

/// Shared fork-join state for one ParallelFor call. Runners and the
/// caller claim block indices from `next`; the caller waits until every
/// claimed block has been finished (or abandoned after an exception).
struct ForState {
  size_t begin, end, grain, blocks;
  const std::function<void(size_t, size_t, size_t)>* body;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr first_ex;
  size_t first_ex_block = SIZE_MAX;

  void RunBlocks() {
    for (;;) {
      size_t b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks) return;
      size_t lo = begin + b * grain;
      size_t hi = std::min(lo + grain, end);
      try {
        (*body)(lo, hi, b);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (b < first_ex_block) {
          first_ex_block = b;
          first_ex = std::current_exception();
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == blocks) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::ParallelForBlocks(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (end <= begin) return;
  grain = std::max<size_t>(grain, 1);
  const size_t blocks = NumBlocks(end - begin, grain);

  // Serial fast path: tiny range, single-thread pool, or a nested call
  // from inside a worker (running inline avoids queue deadlock and keeps
  // nested kernels correct, just unparallelized).
  if (blocks <= 1 || threads_.size() <= 1 || InWorkerThread()) {
    for (size_t b = 0; b < blocks; ++b) {
      size_t lo = begin + b * grain;
      size_t hi = std::min(lo + grain, end);
      body(lo, hi, b);
    }
    return;
  }

  auto state = std::make_shared<ForState>();
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->blocks = blocks;
  state->body = &body;

  // One runner per worker (capped by the block count); the caller also
  // claims blocks, so the pool being busy never stalls the loop.
  size_t runners = std::min(threads_.size(), blocks - 1);
  for (size_t i = 0; i < runners; ++i) {
    Submit([state] { state->RunBlocks(); });
  }
  state->RunBlocks();

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->blocks;
  });
  if (state->first_ex) std::rethrow_exception(state->first_ex);
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t)>& body) {
  ParallelForBlocks(begin, end, grain,
                    [&body](size_t lo, size_t hi, size_t) {
                      for (size_t i = lo; i < hi; ++i) body(i);
                    });
}

namespace {

/// CPUs the calling thread may run on, at least 1.
size_t UsableCpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

Status RunConcurrently(size_t n,
                       const std::function<Status(size_t)>& task) {
  std::vector<Status> status(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        status[i] = task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const size_t threads = std::min(n, UsableCpus());
  std::vector<std::thread> helpers;
  helpers.reserve(threads);
  for (size_t t = 1; t < threads; ++t) {
    try {
      helpers.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // No thread to spare: the started ones drain the rest.
    }
  }
  drain();
  for (auto& h : helpers) h.join();
  for (size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
    if (!status[i].ok()) return status[i];
  }
  return Status::Ok();
}

}  // namespace e2nvm

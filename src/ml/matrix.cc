#include "ml/matrix.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/kernels.h"
#include "common/thread_pool.h"

namespace e2nvm::ml {

namespace {

std::atomic<ThreadPool*> g_compute_pool{nullptr};

/// Thread-local override stack top (see ScopedComputePool). A separate
/// `active` flag distinguishes "override to serial" (nullptr override)
/// from "no override".
thread_local ThreadPool* t_pool_override = nullptr;
thread_local bool t_pool_override_active = false;

/// Minimum multiply-accumulates before a kernel bothers the pool; below
/// this the fork-join overhead dwarfs the work (a single EncodeOne on a
/// 2048-bit segment is ~260k MACs, so prediction right at the write path
/// threshold stays parallel-eligible while tiny test matrices stay
/// serial).
constexpr double kMinParallelMacs = 64.0 * 1024.0;

/// Minimum multiply-accumulates in the WHOLE kernel before it dispatches
/// at all. Below this (inference-sized GEMMs: a MultiPut batch is at
/// most a few dozen rows) the kernel finishes in tens of microseconds —
/// fork-join latency is comparable, and splitting the row range
/// fragments the p-outer loop's B-row reuse. Training-sized GEMMs
/// (hundreds of rows) clear it easily and still fan out.
constexpr double kMinParallelTotalMacs = 2.0 * 1024.0 * 1024.0;

/// Splits `rows` into at most 64 blocks (>=1 row each). Row-parallel
/// kernels write disjoint output rows with unchanged per-row arithmetic,
/// so any blocking — and any pool size — reproduces the serial result
/// bit-for-bit.
size_t RowGrain(size_t rows) { return std::max<size_t>(1, rows / 64); }

/// Work-based grain for the row-parallel GEMMs: every block carries at
/// least kMinParallelMacs of arithmetic, so a dispatched block is never
/// dominated by fork-join overhead. Combined with the NumBlocks pre-check
/// below, single-row inference GEMMs (and anything else below the grain)
/// run inline on the caller without ever constructing a closure or
/// touching the pool's queue.
size_t WorkGrain(size_t rows, double macs_per_row) {
  size_t by_work = static_cast<size_t>(kMinParallelMacs /
                                       std::max(macs_per_row, 1.0)) +
                   1;
  return std::max(RowGrain(rows), by_work);
}

/// Inline-below-grain check: parallel dispatch only pays when the range
/// splits into at least two blocks and the kernel as a whole carries
/// enough arithmetic to amortize the fork-join.
bool UsePool(ThreadPool* pool, size_t rows, size_t grain,
             double total_macs) {
  return pool != nullptr && total_macs >= kMinParallelTotalMacs &&
         ThreadPool::NumBlocks(rows, grain) > 1;
}

/// Runs rows(lo, hi) over the output rows [0, m) of a row-parallel
/// kernel: on the compute pool in work-sized blocks when that pays, else
/// inline as one range. Rows are independent, so any split gives the
/// same bits.
template <typename F>
void ForRowBlocks(size_t m, double macs_per_row, const F& rows) {
  ThreadPool* pool = compute_pool();
  const size_t grain = WorkGrain(m, macs_per_row);
  if (UsePool(pool, m, grain, macs_per_row * m)) {
    pool->ParallelForBlocks(0, m, grain, [&](size_t lo, size_t hi, size_t) {
      rows(lo, hi);
    });
  } else {
    rows(0, m);
  }
}

}  // namespace

void SetComputePool(ThreadPool* pool) {
  g_compute_pool.store(pool, std::memory_order_release);
}

ThreadPool* compute_pool() {
  if (t_pool_override_active) return t_pool_override;
  return g_compute_pool.load(std::memory_order_acquire);
}

ScopedComputePool::ScopedComputePool(ThreadPool* pool)
    : prev_(t_pool_override), prev_active_(t_pool_override_active) {
  t_pool_override = pool;
  t_pool_override_active = true;
}

ScopedComputePool::~ScopedComputePool() {
  t_pool_override = prev_;
  t_pool_override_active = prev_active_;
}

void Matrix::XavierInit(Rng& rng, size_t fan_in, size_t fan_out) {
  float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  for (auto& v : data_) {
    v = (rng.NextFloat() * 2.0f - 1.0f) * limit;
  }
}

void Matrix::CopyRowFrom(const Matrix& src, size_t src_row, size_t dst_row) {
  assert(src.cols() == cols_);
  std::memcpy(Row(dst_row), src.Row(src_row), cols_ * sizeof(float));
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  assert(a.cols() == b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  c->EnsureShape(m, n);
  // Four-row register-blocked GEMMs (kernels.h gemm_f32), then one
  // GEMV per leftover row: each c[i][j] accumulates its k products in
  // ascending-p order from +0.0 with zero a[i][p] skipped in both
  // kernels, so the result is bit-identical to the naive i-outer loop
  // whatever the row split or blocking (this is what lets MultiPut's
  // batched mu-head GEMM match sequential Puts), and the column tiles
  // stay in registers across the whole k loop.
  const KernelOps& kern = Ops();
  ForRowBlocks(m, static_cast<double>(k) * n, [&](size_t lo, size_t hi) {
    size_t i = lo;
    for (; i + 4 <= hi; i += 4) {
      kern.gemm_f32(a.Row(i), b.Row(0), k, n, c->Row(i));
    }
    for (; i < hi; ++i) {
      kern.gemv_f32(a.Row(i), b.Row(0), k, n, c->Row(i));
    }
  });
}

void BitRows::ExpandInto(Matrix* out) const {
  out->EnsureShape(num_rows, dim);
  const KernelOps& kern = Ops();
  for (size_t r = 0; r < num_rows; ++r) {
    kern.bits_to_floats(BitRow(r), dim, out->Row(r));
  }
}

void TransposeInto(const BitRows& x, BitRows* xt) {
  xt->Stage(x.dim, x.num_rows);
  std::fill(xt->bits.begin(), xt->bits.end(), uint64_t{0});
  // Scatter each set bit (p, i) to (i, p): work is proportional to the
  // set bits, and every mask word is written by ascending rows p.
  const size_t tw = xt->row_words;
  for (size_t p = 0; p < x.num_rows; ++p) {
    const uint64_t* row = x.BitRow(p);
    uint64_t* col = xt->bits.data() + p / 64;
    const uint64_t bit = uint64_t{1} << (p % 64);
    for (size_t w = 0; w < x.row_words; ++w) {
      for (uint64_t m = row[w]; m != 0; m &= m - 1) {
        const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(m));
        col[i * tw] |= bit;
      }
    }
  }
}

void BitMatMulInto(const BitRows& a, const Matrix& b, Matrix* c) {
  assert(a.dim == b.rows());
  const size_t m = a.num_rows, k = a.dim, n = b.cols();
  c->EnsureShape(m, n);
  const KernelOps& kern = Ops();
  ForRowBlocks(m, static_cast<double>(k) * n, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      kern.gemv_bits(a.BitRow(i), k, b.Row(0), n, c->Row(i));
    }
  });
}

void TransposeInto(const Matrix& a, Matrix* at) {
  const size_t rows = a.rows(), cols = a.cols();
  at->EnsureShape(cols, rows);
  // 16x16 tiles keep both the reads and the strided writes in cache.
  constexpr size_t kTile = 16;
  for (size_t i0 = 0; i0 < rows; i0 += kTile) {
    const size_t i1 = std::min(i0 + kTile, rows);
    for (size_t j0 = 0; j0 < cols; j0 += kTile) {
      const size_t j1 = std::min(j0 + kTile, cols);
      for (size_t i = i0; i < i1; ++i) {
        for (size_t j = j0; j < j1; ++j) at->Row(j)[i] = a.Row(i)[j];
      }
    }
  }
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulInto(a, b, &c);
  return c;
}

void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* c) {
  assert(a.cols() == b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  c->EnsureShape(m, n);
  // Panels of 8 output columns run as 8 SIMD lanes, each accumulating
  // its dot product in the same ascending-p order as the scalar loop
  // below (kernels.h dot8_f32 contract), so any column split is
  // bit-identical to the all-scalar result.
  const KernelOps& kern = Ops();
  ForRowBlocks(m, static_cast<double>(k) * n, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const float* arow = a.Row(i);
      float* crow = c->Row(i);
      size_t j = 0;
      for (; j + 8 <= n; j += 8) {
        kern.dot8_f32(arow, b.Row(j), k, k, crow + j);
      }
      for (; j < n; ++j) {
        const float* brow = b.Row(j);
        float s = 0.0f;
        for (size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
        crow[j] = s;
      }
    }
  });
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransBInto(a, b, &c);
  return c;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  // (A^T) B with A^T materialized: MatMulInto then sums each output
  // element's products in ascending p with zero terms skipped — the
  // order of the textbook p-outer A^T B loop — in register tiles.
  Matrix at, c;
  TransposeInto(a, &at);
  MatMulInto(at, b, &c);
  return c;
}

void AddInPlace(Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Ops().add_f32(a.data().data(), b.data().data(), a.size());
}

void AddRowVector(Matrix& a, std::span<const float> bias) {
  assert(bias.size() == a.cols());
  const KernelOps& kern = Ops();
  for (size_t i = 0; i < a.rows(); ++i) {
    kern.add_f32(a.Row(i), bias.data(), a.cols());
  }
}

void ReluInPlace(Matrix& a) {
  for (auto& v : a.data()) v = v > 0.0f ? v : 0.0f;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    c.data()[i] = a.data()[i] * b.data()[i];
  }
  return c;
}

std::vector<float> ColSums(const Matrix& a) {
  std::vector<float> s(a.cols(), 0.0f);
  for (size_t i = 0; i < a.rows(); ++i) {
    const float* row = a.Row(i);
    for (size_t j = 0; j < a.cols(); ++j) s[j] += row[j];
  }
  return s;
}

double FrobeniusSq(const Matrix& a) {
  double s = 0.0;
  for (float v : a.data()) s += static_cast<double>(v) * v;
  return s;
}

}  // namespace e2nvm::ml

#ifndef E2NVM_ML_MATRIX_H_
#define E2NVM_ML_MATRIX_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"

namespace e2nvm {
class ThreadPool;
}

namespace e2nvm::ml {

/// Installs the process-global pool used by every parallel ML kernel
/// (MatMul*, K-means fit/predict-batch, the VAE's elementwise batch
/// loops) — the library's set-pool hook. nullptr (the default) selects
/// the serial code paths, which are bit-identical to the pre-parallel
/// implementation. The pool must outlive all kernel calls; install
/// before spawning any thread that runs kernels (the pointer itself is
/// read atomically). A thread-local ScopedComputePool override (below)
/// takes precedence on the installing thread.
void SetComputePool(ThreadPool* pool);

/// Currently effective pool for the calling thread: the innermost active
/// ScopedComputePool override if any, else the global hook, else nullptr
/// (serial mode). Kernel results are pool-size invariant by contract, so
/// which pool answers here never changes numerics — only where the work
/// runs.
ThreadPool* compute_pool();

/// RAII thread-local pool override: while alive, kernels issued from the
/// *constructing thread* dispatch to `pool` (nullptr forces the serial
/// path) regardless of the global hook. This is how a sharded store
/// pins each shard's inference/retrain work to that shard's own compute
/// lane — shard A's kernels can never queue behind shard B's retrain,
/// and the steady-state path never touches a pool another shard waits
/// on. Overrides nest; each restores its predecessor on destruction.
class ScopedComputePool {
 public:
  explicit ScopedComputePool(ThreadPool* pool);
  ~ScopedComputePool();
  ScopedComputePool(const ScopedComputePool&) = delete;
  ScopedComputePool& operator=(const ScopedComputePool&) = delete;

 private:
  ThreadPool* prev_;
  bool prev_active_;
};

/// Bytes of the cache-line alignment every Matrix buffer starts on.
inline constexpr size_t kCacheLineBytes = 64;

/// Allocator handing out kCacheLineBytes-aligned arrays. It
/// over-allocates through the replaceable global operator new(size_t)
/// — so allocation audits that replace it still count every buffer —
/// rounds up to the next line boundary, and keeps the raw pointer in
/// the word just below the returned one. (Aligned operator new /
/// posix_memalign would fragment the heap under the training churn.)
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}

  T* allocate(size_t n) {
    void* raw = ::operator new(n * sizeof(T) + kCacheLineBytes);
    const uintptr_t aligned =
        (reinterpret_cast<uintptr_t>(raw) + kCacheLineBytes) &
        ~uintptr_t{kCacheLineBytes - 1};
    reinterpret_cast<void**>(aligned)[-1] = raw;
    return reinterpret_cast<T*>(aligned);
  }
  void deallocate(T* p, size_t) {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }

  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

/// Float storage of a Matrix: a vector whose buffer starts on a cache
/// line, so the SIMD kernels' row tiles never straddle one more line
/// than they must, wherever the allocator happened to put the buffer.
using FloatStorage = std::vector<float, CacheLineAllocator<float>>;

/// Dense row-major float matrix — the tensor type of the ML substrate.
/// Sized for this library's models (inputs up to a few thousand features,
/// batches of a few hundred), so a straightforward cache-friendly
/// implementation is sufficient; no BLAS dependency. Row(0) is always
/// kCacheLineBytes-aligned: after construction, growth, copy and move.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Builds from explicit data (size must be rows*cols).
  Matrix(size_t rows, size_t cols, const std::vector<float>& data)
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    assert(data_.size() == rows_ * cols_);
  }

  /// Re-shapes to rows x cols, reusing the existing buffer whenever the
  /// element count matches (and vector capacity otherwise). Contents are
  /// unspecified after a call — the scratch-buffer idiom of the write-path
  /// inference kernels: buffers grow during warm-up, then every further
  /// call is allocation-free.
  void EnsureShape(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    if (data_.size() != rows * cols) data_.resize(rows * cols);
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* Row(size_t r) { return data_.data() + r * cols_; }
  const float* Row(size_t r) const { return data_.data() + r * cols_; }

  FloatStorage& data() { return data_; }
  const FloatStorage& data() const { return data_; }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Xavier/Glorot uniform initialization for a (out x in)-shaped weight.
  void XavierInit(Rng& rng, size_t fan_in, size_t fan_out);

  /// Copies row `src_row` of `src` into row `dst_row` of *this
  /// (cols must match).
  void CopyRowFrom(const Matrix& src, size_t src_row, size_t dst_row);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  FloatStorage data_;
};

/// A batch of bit strings, one per row — the input format of every
/// model trained on segment contents and of the write-path encoder. Row
/// r is `row_words` LSB-first words (the layout of BitVector::words()),
/// and bits at or above `dim` are zero. The VAE's first layer sums the
/// weight rows of the set bits (BitMatMulInto) instead of multiplying a
/// 0.0/1.0 float expansion; models that consume floats expand once
/// (ExpandInto).
struct BitRows {
  size_t num_rows = 0;
  /// Bits per row (the model input width).
  size_t dim = 0;
  /// Words per row: ceil(dim / 64).
  size_t row_words = 0;
  /// num_rows x row_words words.
  std::vector<uint64_t> bits;

  BitRows() = default;
  /// `rows` all-zero rows of `width` bits.
  BitRows(size_t rows, size_t width)
      : num_rows(rows),
        dim(width),
        row_words((width + 63) / 64),
        bits(rows * row_words, 0) {}

  /// Shapes for `rows` rows of `width` bits. Grow-only: at a steady
  /// shape this allocates nothing. Row contents are unspecified until
  /// SetRow/ClearRow/CopyRowFrom.
  void Stage(size_t rows, size_t width) {
    num_rows = rows;
    dim = width;
    row_words = (width + 63) / 64;
    bits.resize(rows * row_words);
  }

  uint64_t* BitRow(size_t r) { return bits.data() + r * row_words; }
  const uint64_t* BitRow(size_t r) const {
    return bits.data() + r * row_words;
  }

  bool Get(size_t r, size_t d) const {
    assert(r < num_rows && d < dim);
    return (BitRow(r)[d >> 6] >> (d & 63)) & 1u;
  }

  /// Copies `image` (exactly dim bits) into row r.
  void SetRow(size_t r, const BitVector& image) {
    assert(image.size() == dim);
    std::copy_n(image.words().data(), row_words, BitRow(r));
  }

  void ClearRow(size_t r) {
    std::fill(BitRow(r), BitRow(r) + row_words, uint64_t{0});
  }

  /// Copies row `src_row` of `src` into row `dst_row` (same dim).
  void CopyRowFrom(const BitRows& src, size_t src_row, size_t dst_row) {
    assert(src.dim == dim);
    std::copy_n(src.BitRow(src_row), row_words, BitRow(dst_row));
  }

  /// Expands the rows to 0.0f/1.0f floats in `out` (num_rows x dim) —
  /// the input of models that cannot consume bits. Allocation-free once
  /// `out` has reached its working shape.
  void ExpandInto(Matrix* out) const;
};

/// Writes the transpose of `x` into `xt`: xt has x.dim rows of
/// x.num_rows bits, and bit p of row i is bit i of x's row p. A batch of
/// 64 rows transposes into one word per input column, a batch of 70
/// into two. Grow-only in `xt`'s storage.
void TransposeInto(const BitRows& x, BitRows* xt);

/// C = A * B for a bit-row A (m rows of k = a.dim bits) and B (k x n),
/// into a caller-owned matrix (EnsureShape'd to m x n). Row r of C sums
/// the B rows of row r's set bits in ascending order from +0.0
/// (KernelOps::gemv_bits) — exactly the additions MatMulInto performs on
/// the 0.0/1.0 expansion of A, so the result is bit-identical to it.
/// With A = TransposeInto(X) this is X^T * B, bit-identical to
/// MatMulTransA on the expansion of X (the first layer's weight
/// gradient).
void BitMatMulInto(const BitRows& a, const Matrix& b, Matrix* c);

/// at = a^T (EnsureShape'd to a.cols() x a.rows()).
void TransposeInto(const Matrix& a, Matrix* at);

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n). Every element sums
/// its products in ascending p from +0.0, skipping zero A entries
/// (exact: such a sum is never -0.0, so a +-0.0 product cannot change
/// it while B is finite).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A * B into a caller-owned scratch matrix (EnsureShape'd to m x n).
/// Same kernel and accumulation order as MatMul, so results are
/// bit-identical — this is the allocation-free variant the write-path
/// inference scratch uses.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c);

/// C = A * B^T. Shapes: (m x k) * (n x k) -> (m x n).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// Allocation-free MatMulTransB (bit-identical; see MatMulInto).
void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* c);

/// C = A^T * B. Shapes: (k x m) * (k x n) -> (m x n). MatMul on the
/// transpose of A, so the same ascending-p order.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// Elementwise a += b (same shape).
void AddInPlace(Matrix& a, const Matrix& b);

/// Adds a row vector `bias` (1 x n) to every row of `a` (m x n).
void AddRowVector(Matrix& a, std::span<const float> bias);

/// Elementwise in-place ReLU: a[i] = max(a[i], 0). Same arithmetic as
/// layers.h's Relu::Forward, without the mask/output allocations.
void ReluInPlace(Matrix& a);

/// Elementwise Hadamard product c = a .* b.
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// Column sums of `a` -> vector of length cols (bias gradients).
std::vector<float> ColSums(const Matrix& a);

/// Squared Frobenius norm.
double FrobeniusSq(const Matrix& a);

}  // namespace e2nvm::ml

#endif  // E2NVM_ML_MATRIX_H_

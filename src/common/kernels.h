#ifndef E2NVM_COMMON_KERNELS_H_
#define E2NVM_COMMON_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace e2nvm {

/// Sets/resets decomposition of a word-level bit diff (Alg. 1
/// bookkeeping: a 0->1 program is a SET pulse, a 1->0 program a RESET
/// pulse; PCM charges them differently).
struct DiffCounts {
  size_t sets = 0;
  size_t resets = 0;
};

/// Scalars of one Adam step (KernelOps::adam_f32): the moment decays,
/// the bias corrections 1 - beta^t of step t, the learning rate and
/// the denominator epsilon.
struct AdamStep {
  float beta1;
  float beta2;
  float correction1;
  float correction2;
  float lr;
  float eps;
};

/// Instruction-set tiers of the kernel layer, ordered so that a higher
/// value strictly extends the lower ones on the CPUs we dispatch for.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,  // Requires AVX-512F + VPOPCNTDQ.
};

/// The dispatchable hot-loop kernels. Every E2-NVM operation bottoms out
/// in one of these: the bit kernels carry Alg. 1's differential-write
/// accounting and the DAP's Hamming scans, the float kernels carry the
/// VAE encode GEMM and the fused k-means assignment.
///
/// ## Bit-identity contract
///
/// Each tier must produce results bit-identical to the scalar reference:
///  - integer kernels are trivially exact (popcounts over any grouping);
///  - float kernels vectorize across independent *output elements* only.
///    `add_f32` and `adam_f32` are element-wise; `dot8_f32` keeps 8
///    output columns in 8 lanes, each accumulating its k products in the
///    same ascending order as the scalar loop; `gemv_f32`/`gemv_bits`/
///    `gemm_f32` hold column tiles in registers, each column summing its
///    rows in ascending p. No tier may reassociate an accumulation or
///    fuse a multiply-add: every product is rounded, then added and
///    rounded again, exactly like `c += a * b` compiled without FP
///    contraction.
///    The SIMD translation units are therefore built with
///    `-ffp-contract=off` and WITHOUT `-mfma`.
struct KernelOps {
  /// Total set bits in `w[0..n)`.
  size_t (*popcount_words)(const uint64_t* w, size_t n);
  /// popcount(a ^ b) over n words — the placement similarity metric.
  size_t (*hamming_words)(const uint64_t* a, const uint64_t* b, size_t n);
  /// Set/reset transition counts of programming `new_w` over `old_w`.
  DiffCounts (*diff_words)(const uint64_t* old_w, const uint64_t* new_w,
                           size_t n);
  /// Expands the low `num_bits` bits (LSB-first per word) to
  /// 0.0f/1.0f floats — the model featurization kernel.
  void (*bits_to_floats)(const uint64_t* words, size_t num_bits,
                         float* out);
  /// dst[i] += src[i] (bias rows, gradient accumulation).
  void (*add_f32)(float* dst, const float* src, size_t n);
  /// Eight independent dot products against consecutive rows of a
  /// row-major matrix: out[j] = sum_p a[p] * b[j * ldb + p] for
  /// j in [0, 8), each lane accumulating in ascending p.
  void (*dot8_f32)(const float* a, const float* b, size_t ldb, size_t k,
                   float* out);
  /// Row-vector times row-major matrix: c[j] = sum_p a[p] * b[p * n + j]
  /// for j in [0, n), overwriting c. Each c[j] accumulates in ascending
  /// p with zero a[p] terms skipped — the same element order (and the
  /// same skip) as the naive scalar loop, so the register-blocked SIMD
  /// tiers are bit-identical to it. MatMulInto runs one per output row
  /// (the write path's mu head, every training GEMM but MatMulTransB's):
  /// keeping the whole k-loop inside one kernel call holds the
  /// accumulators in registers instead of re-loading the output row
  /// once per nonzero a[p].
  void (*gemv_f32)(const float* a, const float* b, size_t k, size_t n,
                   float* c);
  /// Four-row block of the same product: rows r in [0, 4) of c (4 x n,
  /// row-major, overwritten) are gemv_f32 of rows r of a (4 x k,
  /// row-major) against b. Each b row loaded feeds all four output
  /// rows, so a batch GEMM streams b a quarter as often as per-row
  /// GEMVs. Every c[r][j] is bit-identical to gemv_f32's: ascending p,
  /// mul then add, and a zero a[r][p] term skipped — by a lane mask (or
  /// a blend), not a branch, since the four rows' zeros do not line up.
  /// MatMulInto runs it over each block of four rows and gemv_f32 over
  /// the leftover rows.
  void (*gemm_f32)(const float* a, const float* b, size_t k, size_t n,
                   float* c);
  /// Bit-row times row-major matrix: c[j] = sum over the set bits p < k
  /// of words[] (LSB-first per word, ascending p) of b[p * n + j], for
  /// j in [0, n), overwriting c; bits at p >= k are ignored. This is the
  /// write path's encoder first layer fed the value's bits directly: it
  /// performs exactly the additions gemv_f32 performs on the
  /// bits_to_floats expansion of `words` (0.0 terms skipped, 1.0f * x
  /// == x), in the same order from the same +0.0 start, so the result
  /// is bit-identical to that two-step path on every tier.
  void (*gemv_bits)(const uint64_t* words, size_t k, const float* b,
                    size_t n, float* c);
  /// CRC32C (Castagnoli, reflected 0x82F63B78) of `data[0..n)` continued
  /// from `crc` — the integrity checksum of the durability layer (pool
  /// headers, journal slots, segment scrub). Standard convention: pass 0
  /// to start, chain by passing the previous return value; the result of
  /// one call over a buffer equals chained calls over any split of it.
  /// Integer-exact, so every tier is trivially bit-identical (the x86
  /// tiers use the SSE4.2 crc32 instruction, implied by AVX2).
  uint32_t (*crc32c)(uint32_t crc, const void* data, size_t n);
  /// One Adam update of n parameters (ml::ParamBlock::Step): per element
  ///   m = b1 * m + (1 - b1) * g
  ///   v = b2 * v + ((1 - b2) * g) * g
  ///   value -= (lr * (m / correction1)) / (sqrt(v / correction2) + eps)
  /// with every operation a separately rounded IEEE float mul, add, div
  /// or sqrt in exactly this order (no FMA, no reciprocal estimates), so
  /// every tier is bit-identical to the scalar loop.
  void (*adam_f32)(float* value, float* m, float* v, const float* grad,
                   size_t n, const AdamStep& step);
};

/// The process-wide kernel table. Chosen once on first use: the best
/// tier both compiled in and reported by CPUID, clamped down by the
/// `E2NVM_SIMD=scalar|avx2|avx512` environment override. Thread-safe.
const KernelOps& Ops();

/// Tier behind Ops().
SimdLevel ActiveSimdLevel();

/// Stable lowercase name ("scalar", "avx2", "avx512") for reports.
const char* SimdLevelName(SimdLevel level);

/// Table for one specific tier, or nullptr when that tier was not
/// compiled in or this CPU lacks it — lets tests compare every
/// available tier against the scalar reference in a single process.
const KernelOps* OpsFor(SimdLevel level);

/// Dispatched one-shot CRC32C of a buffer (seed 0). For incremental
/// checksums call Ops().crc32c directly.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Ops().crc32c(0, data, n);
}

namespace internal {
/// Defined by the feature-gated TUs (kernels_avx2.cc, kernels_avx512.cc);
/// referenced only when the matching E2NVM_HAVE_* macro is set.
const KernelOps* Avx2Ops();
const KernelOps* Avx512Ops();
}  // namespace internal

}  // namespace e2nvm

#endif  // E2NVM_COMMON_KERNELS_H_

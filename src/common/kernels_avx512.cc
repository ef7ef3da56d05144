// AVX-512 kernel tier (AVX-512F + VPOPCNTDQ). Compiled with exactly
// those ISA flags plus -ffp-contract=off and WITHOUT -mfma — see the
// bit-identity contract in kernels.h. The masked loads/stores make every
// tail exact without scalar epilogues: masked-out lanes are
// architecturally guaranteed not to fault.
#include "common/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

namespace e2nvm::internal {
namespace {

inline __mmask8 TailMask8(size_t remaining) {
  return static_cast<__mmask8>((1u << remaining) - 1);
}

inline __mmask16 TailMask16(size_t remaining) {
  return static_cast<__mmask16>((1u << remaining) - 1);
}

/// Sum of the eight 64-bit lanes, through a store (GCC 12 reports an
/// uninitialized variable inside _mm512_reduce_add_epi64).
inline uint64_t SumEpi64(__m512i acc) {
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  uint64_t sum = 0;
  for (uint64_t lane : lanes) sum += lane;
  return sum;
}

size_t Avx512Popcount(const uint64_t* w, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_loadu_si512(w + i)));
  }
  if (i < n) {
    __m512i v = _mm512_maskz_loadu_epi64(TailMask8(n - i), w + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  return static_cast<size_t>(SumEpi64(acc));
}

size_t Avx512Hamming(const uint64_t* a, const uint64_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i diff = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                    _mm512_loadu_si512(b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(diff));
  }
  if (i < n) {
    __mmask8 m = TailMask8(n - i);
    __m512i diff = _mm512_xor_si512(_mm512_maskz_loadu_epi64(m, a + i),
                                    _mm512_maskz_loadu_epi64(m, b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(diff));
  }
  return static_cast<size_t>(SumEpi64(acc));
}

DiffCounts Avx512Diff(const uint64_t* old_w, const uint64_t* new_w,
                      size_t n) {
  __m512i set_acc = _mm512_setzero_si512();
  __m512i reset_acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i ov = _mm512_loadu_si512(old_w + i);
    __m512i nv = _mm512_loadu_si512(new_w + i);
    __m512i diff = _mm512_xor_si512(ov, nv);
    set_acc = _mm512_add_epi64(
        set_acc, _mm512_popcnt_epi64(_mm512_and_si512(diff, nv)));
    reset_acc = _mm512_add_epi64(
        reset_acc, _mm512_popcnt_epi64(_mm512_and_si512(diff, ov)));
  }
  if (i < n) {
    __mmask8 m = TailMask8(n - i);
    __m512i ov = _mm512_maskz_loadu_epi64(m, old_w + i);
    __m512i nv = _mm512_maskz_loadu_epi64(m, new_w + i);
    __m512i diff = _mm512_xor_si512(ov, nv);
    set_acc = _mm512_add_epi64(
        set_acc, _mm512_popcnt_epi64(_mm512_and_si512(diff, nv)));
    reset_acc = _mm512_add_epi64(
        reset_acc, _mm512_popcnt_epi64(_mm512_and_si512(diff, ov)));
  }
  DiffCounts d;
  d.sets = static_cast<size_t>(SumEpi64(set_acc));
  d.resets = static_cast<size_t>(SumEpi64(reset_acc));
  return d;
}

void Avx512BitsToFloats(const uint64_t* words, size_t num_bits,
                        float* out) {
  // Sixteen bits expand per step: the chunk itself is the write mask,
  // so a masked move of 1.0f materializes the floats directly.
  const __m512 ones = _mm512_set1_ps(1.0f);
  const uint16_t* chunks = reinterpret_cast<const uint16_t*>(words);
  const size_t full = num_bits / 16;
  for (size_t i = 0; i < full; ++i) {
    _mm512_storeu_ps(
        out + i * 16,
        _mm512_maskz_mov_ps(static_cast<__mmask16>(chunks[i]), ones));
  }
  for (size_t bit = full * 16; bit < num_bits; ++bit) {
    out[bit] = static_cast<float>((words[bit >> 6] >> (bit & 63)) & 1u);
  }
}

void Avx512Add(float* dst, const float* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i),
                                            _mm512_loadu_ps(src + i)));
  }
  if (i < n) {
    __mmask16 m = TailMask16(n - i);
    __m512 sum = _mm512_add_ps(_mm512_maskz_loadu_ps(m, dst + i),
                               _mm512_maskz_loadu_ps(m, src + i));
    _mm512_mask_storeu_ps(dst + i, m, sum);
  }
}

void Avx512Dot8(const float* a, const float* b, size_t ldb, size_t k,
                float* out) {
  // Same column-lane layout as the AVX2 tier (8 outputs fit a __m256);
  // each lane accumulates its products in ascending p.
  const __m256i idx = _mm256_setr_epi32(
      0, static_cast<int>(ldb), static_cast<int>(2 * ldb),
      static_cast<int>(3 * ldb), static_cast<int>(4 * ldb),
      static_cast<int>(5 * ldb), static_cast<int>(6 * ldb),
      static_cast<int>(7 * ldb));
  __m256 acc = _mm256_setzero_ps();
  for (size_t p = 0; p < k; ++p) {
    __m256 bv = _mm256_i32gather_ps(b + p, idx, 4);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(a[p]), bv));
  }
  _mm256_storeu_ps(out, acc);
}

void Avx512Gemv(const float* a, const float* b, size_t k, size_t n,
                float* c) {
  // Column tiles of 64 floats (4 zmm accumulators held across the whole
  // k-loop), then masked 16-wide steps for the tail. Per-element math is
  // ascending-p mul-then-add with zero a[p] skipped — bit-identical to
  // the scalar reference.
  size_t j = 0;
  for (; j + 64 <= n; j += 64) {
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    __m512 acc2 = _mm512_setzero_ps();
    __m512 acc3 = _mm512_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
      const float av = a[p];
      if (av == 0.0f) continue;
      const __m512 vav = _mm512_set1_ps(av);
      const float* brow = b + p * n + j;
      acc0 = _mm512_add_ps(acc0,
                           _mm512_mul_ps(vav, _mm512_loadu_ps(brow)));
      acc1 = _mm512_add_ps(
          acc1, _mm512_mul_ps(vav, _mm512_loadu_ps(brow + 16)));
      acc2 = _mm512_add_ps(
          acc2, _mm512_mul_ps(vav, _mm512_loadu_ps(brow + 32)));
      acc3 = _mm512_add_ps(
          acc3, _mm512_mul_ps(vav, _mm512_loadu_ps(brow + 48)));
    }
    _mm512_storeu_ps(c + j, acc0);
    _mm512_storeu_ps(c + j + 16, acc1);
    _mm512_storeu_ps(c + j + 32, acc2);
    _mm512_storeu_ps(c + j + 48, acc3);
  }
  for (; j < n; j += 16) {
    const __mmask16 m =
        n - j >= 16 ? static_cast<__mmask16>(0xFFFF) : TailMask16(n - j);
    __m512 acc = _mm512_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
      const float av = a[p];
      if (av == 0.0f) continue;
      __m512 bv = _mm512_maskz_loadu_ps(m, b + p * n + j);
      acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_set1_ps(av), bv));
    }
    _mm512_mask_storeu_ps(c + j, m, acc);
  }
}

/// acc + av * bv in the lanes where av is not zero (nz), acc elsewhere:
/// gemv_f32's skipped zero term, as a write mask instead of a branch.
inline __m512 MulAddNonzero(__m512 acc, __mmask16 nz, __m512 av,
                            __m512 bv) {
  return _mm512_mask_add_ps(acc, nz, acc, _mm512_mul_ps(av, bv));
}

/// All-lanes mask when `av` (a broadcast a[r][p]) is not 0.0 or -0.0 —
/// NEQ_UQ, so a NaN term is added like gemv_f32's `av == 0.0f` test
/// adds it.
inline __mmask16 Nonzero(__m512 av) {
  return _mm512_cmp_ps_mask(av, _mm512_setzero_ps(), _CMP_NEQ_UQ);
}

void Avx512Gemm(const float* a, const float* b, size_t k, size_t n,
                float* c) {
  // Column tiles of 64 floats in 4 rows x 4 zmm accumulators: each b
  // row segment is loaded once for the four output rows. Then masked
  // 16-wide steps for the tail. Per element: ascending p, mul then
  // add, zero a terms masked off — bit-identical to gemv_f32.
  const float* a0 = a;
  const float* a1 = a + k;
  const float* a2 = a + 2 * k;
  const float* a3 = a + 3 * k;
  float* c0 = c;
  float* c1 = c + n;
  float* c2 = c + 2 * n;
  float* c3 = c + 3 * n;
  size_t j = 0;
  for (; j + 64 <= n; j += 64) {
    __m512 acc[4][4];
    for (auto& row : acc) {
      for (auto& v : row) v = _mm512_setzero_ps();
    }
    for (size_t p = 0; p < k; ++p) {
      const float* brow = b + p * n + j;
      const __m512 bv0 = _mm512_loadu_ps(brow);
      const __m512 bv1 = _mm512_loadu_ps(brow + 16);
      const __m512 bv2 = _mm512_loadu_ps(brow + 32);
      const __m512 bv3 = _mm512_loadu_ps(brow + 48);
      const __m512 av[4] = {_mm512_set1_ps(a0[p]), _mm512_set1_ps(a1[p]),
                            _mm512_set1_ps(a2[p]), _mm512_set1_ps(a3[p])};
      for (int r = 0; r < 4; ++r) {
        const __mmask16 nz = Nonzero(av[r]);
        acc[r][0] = MulAddNonzero(acc[r][0], nz, av[r], bv0);
        acc[r][1] = MulAddNonzero(acc[r][1], nz, av[r], bv1);
        acc[r][2] = MulAddNonzero(acc[r][2], nz, av[r], bv2);
        acc[r][3] = MulAddNonzero(acc[r][3], nz, av[r], bv3);
      }
    }
    float* const crow[4] = {c0, c1, c2, c3};
    for (int r = 0; r < 4; ++r) {
      for (int t = 0; t < 4; ++t) {
        _mm512_storeu_ps(crow[r] + j + 16 * t, acc[r][t]);
      }
    }
  }
  for (; j < n; j += 16) {
    const __mmask16 m =
        n - j >= 16 ? static_cast<__mmask16>(0xFFFF) : TailMask16(n - j);
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    __m512 acc2 = _mm512_setzero_ps();
    __m512 acc3 = _mm512_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
      const __m512 bv = _mm512_maskz_loadu_ps(m, b + p * n + j);
      const __m512 av0 = _mm512_set1_ps(a0[p]);
      const __m512 av1 = _mm512_set1_ps(a1[p]);
      const __m512 av2 = _mm512_set1_ps(a2[p]);
      const __m512 av3 = _mm512_set1_ps(a3[p]);
      acc0 = MulAddNonzero(acc0, Nonzero(av0), av0, bv);
      acc1 = MulAddNonzero(acc1, Nonzero(av1), av1, bv);
      acc2 = MulAddNonzero(acc2, Nonzero(av2), av2, bv);
      acc3 = MulAddNonzero(acc3, Nonzero(av3), av3, bv);
    }
    _mm512_mask_storeu_ps(c0 + j, m, acc0);
    _mm512_mask_storeu_ps(c1 + j, m, acc1);
    _mm512_mask_storeu_ps(c2 + j, m, acc2);
    _mm512_mask_storeu_ps(c3 + j, m, acc3);
  }
}

void Avx512Adam(float* value, float* m, float* v, const float* grad,
                size_t n, const AdamStep& step) {
  // Sixteen parameters per step, masked tail; the scalar loop's
  // operations in its order, each one IEEE-rounded (div and sqrt are
  // exact-rounded instructions, not approximations). The zero-masked
  // sqrt avoids GCC 12's uninitialized-variable warning inside the
  // unmasked _mm512_sqrt_ps.
  const __m512 b1 = _mm512_set1_ps(step.beta1);
  const __m512 one_minus_b1 = _mm512_set1_ps(1.0f - step.beta1);
  const __m512 b2 = _mm512_set1_ps(step.beta2);
  const __m512 one_minus_b2 = _mm512_set1_ps(1.0f - step.beta2);
  const __m512 c1 = _mm512_set1_ps(step.correction1);
  const __m512 c2 = _mm512_set1_ps(step.correction2);
  const __m512 lr = _mm512_set1_ps(step.lr);
  const __m512 eps = _mm512_set1_ps(step.eps);
  for (size_t i = 0; i < n; i += 16) {
    const __mmask16 mask =
        n - i >= 16 ? static_cast<__mmask16>(0xFFFF) : TailMask16(n - i);
    const __m512 g = _mm512_maskz_loadu_ps(mask, grad + i);
    const __m512 mi =
        _mm512_add_ps(_mm512_mul_ps(b1, _mm512_maskz_loadu_ps(mask, m + i)),
                      _mm512_mul_ps(one_minus_b1, g));
    const __m512 vi = _mm512_add_ps(
        _mm512_mul_ps(b2, _mm512_maskz_loadu_ps(mask, v + i)),
        _mm512_mul_ps(_mm512_mul_ps(one_minus_b2, g), g));
    const __m512 update = _mm512_div_ps(
        _mm512_mul_ps(lr, _mm512_div_ps(mi, c1)),
        _mm512_add_ps(_mm512_maskz_sqrt_ps(mask, _mm512_div_ps(vi, c2)),
                      eps));
    _mm512_mask_storeu_ps(m + i, mask, mi);
    _mm512_mask_storeu_ps(v + i, mask, vi);
    _mm512_mask_storeu_ps(
        value + i, mask,
        _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, value + i), update));
  }
}

/// Calls f(p) for every set bit p < k of `words`, in ascending p (a
/// per-TU copy, as in kernels_avx2.cc).
template <typename F>
inline void ForEachSetBit(const uint64_t* words, size_t k, F&& f) {
  const size_t full = k / 64;
  for (size_t w = 0; w < full; ++w) {
    for (uint64_t word = words[w]; word != 0; word &= word - 1) {
      f(w * 64 + static_cast<size_t>(__builtin_ctzll(word)));
    }
  }
  if ((k & 63) != 0) {
    uint64_t word = words[full] & ((uint64_t{1} << (k & 63)) - 1);
    for (; word != 0; word &= word - 1) {
      f(full * 64 + static_cast<size_t>(__builtin_ctzll(word)));
    }
  }
}

void Avx512GemvBits(const uint64_t* words, size_t k, const float* b,
                    size_t n, float* c) {
  // 128-column tiles in 8 zmm accumulators, so a 128-wide hidden layer
  // walks the set bits once; then 64-column tiles, then masked 16-wide
  // steps. Every c[j] adds row p's entry for each set bit in ascending
  // p from +0.0 — the additions gemv_f32 makes on 0/1 floats.
  size_t j = 0;
  for (; j + 128 <= n; j += 128) {
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    __m512 acc2 = _mm512_setzero_ps();
    __m512 acc3 = _mm512_setzero_ps();
    __m512 acc4 = _mm512_setzero_ps();
    __m512 acc5 = _mm512_setzero_ps();
    __m512 acc6 = _mm512_setzero_ps();
    __m512 acc7 = _mm512_setzero_ps();
    ForEachSetBit(words, k, [&](size_t p) {
      const float* brow = b + p * n + j;
      acc0 = _mm512_add_ps(acc0, _mm512_loadu_ps(brow));
      acc1 = _mm512_add_ps(acc1, _mm512_loadu_ps(brow + 16));
      acc2 = _mm512_add_ps(acc2, _mm512_loadu_ps(brow + 32));
      acc3 = _mm512_add_ps(acc3, _mm512_loadu_ps(brow + 48));
      acc4 = _mm512_add_ps(acc4, _mm512_loadu_ps(brow + 64));
      acc5 = _mm512_add_ps(acc5, _mm512_loadu_ps(brow + 80));
      acc6 = _mm512_add_ps(acc6, _mm512_loadu_ps(brow + 96));
      acc7 = _mm512_add_ps(acc7, _mm512_loadu_ps(brow + 112));
    });
    _mm512_storeu_ps(c + j, acc0);
    _mm512_storeu_ps(c + j + 16, acc1);
    _mm512_storeu_ps(c + j + 32, acc2);
    _mm512_storeu_ps(c + j + 48, acc3);
    _mm512_storeu_ps(c + j + 64, acc4);
    _mm512_storeu_ps(c + j + 80, acc5);
    _mm512_storeu_ps(c + j + 96, acc6);
    _mm512_storeu_ps(c + j + 112, acc7);
  }
  for (; j + 64 <= n; j += 64) {
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    __m512 acc2 = _mm512_setzero_ps();
    __m512 acc3 = _mm512_setzero_ps();
    ForEachSetBit(words, k, [&](size_t p) {
      const float* brow = b + p * n + j;
      acc0 = _mm512_add_ps(acc0, _mm512_loadu_ps(brow));
      acc1 = _mm512_add_ps(acc1, _mm512_loadu_ps(brow + 16));
      acc2 = _mm512_add_ps(acc2, _mm512_loadu_ps(brow + 32));
      acc3 = _mm512_add_ps(acc3, _mm512_loadu_ps(brow + 48));
    });
    _mm512_storeu_ps(c + j, acc0);
    _mm512_storeu_ps(c + j + 16, acc1);
    _mm512_storeu_ps(c + j + 32, acc2);
    _mm512_storeu_ps(c + j + 48, acc3);
  }
  for (; j < n; j += 16) {
    const __mmask16 m =
        n - j >= 16 ? static_cast<__mmask16>(0xFFFF) : TailMask16(n - j);
    __m512 acc = _mm512_setzero_ps();
    ForEachSetBit(words, k, [&](size_t p) {
      acc = _mm512_add_ps(acc, _mm512_maskz_loadu_ps(m, b + p * n + j));
    });
    _mm512_mask_storeu_ps(c + j, m, acc);
  }
}

// CRC32C through the same SSE4.2 crc32 unit as the AVX2 tier (baseline
// on every AVX-512 CPU); duplicated here so the tier's table stands
// alone. See kernels_avx2.cc for the inversion convention.
uint32_t Avx512Crc32c(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t state = ~crc;
  while (n >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    state = _mm_crc32_u64(state, word);
    p += 8;
    n -= 8;
  }
  auto s32 = static_cast<uint32_t>(state);
  while (n > 0) {
    s32 = _mm_crc32_u8(s32, *p++);
    --n;
  }
  return ~s32;
}

const KernelOps kAvx512Ops = {
    Avx512Popcount, Avx512Hamming, Avx512Diff,   Avx512BitsToFloats,
    Avx512Add,      Avx512Dot8,    Avx512Gemv,   Avx512Gemm,
    Avx512GemvBits, Avx512Crc32c,  Avx512Adam,
};

}  // namespace

const KernelOps* Avx512Ops() { return &kAvx512Ops; }

}  // namespace e2nvm::internal

#else  // !(__AVX512F__ && __AVX512VPOPCNTDQ__)

namespace e2nvm::internal {
const KernelOps* Avx512Ops() { return nullptr; }
}  // namespace e2nvm::internal

#endif  // __AVX512F__ && __AVX512VPOPCNTDQ__

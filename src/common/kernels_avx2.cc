// AVX2 kernel tier. This translation unit is the only place in the
// library compiled with -mavx2, and it is also compiled with
// -ffp-contract=off and WITHOUT -mfma: the bit-identity contract in
// kernels.h requires every multiply-add to round twice, exactly like the
// scalar reference. x86 is little-endian, which the byte/word reinterpret
// casts below rely on.
#include "common/kernels.h"

#ifdef __AVX2__

#include <immintrin.h>

namespace e2nvm::internal {
namespace {

/// Per-64-bit-lane popcount via the classic nibble-LUT pshufb trick:
/// split each byte into nibbles, look both up in a 16-entry bit-count
/// table, then horizontally sum bytes per lane with SAD.
inline __m256i PopcountEpi64(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0F);
  __m256i lo = _mm256_and_si256(v, low_mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline uint64_t SumEpi64(__m256i acc) {
  __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  return static_cast<uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

inline __m256i Load4(const uint64_t* w) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
}

size_t Avx2Popcount(const uint64_t* w, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(acc, PopcountEpi64(Load4(w + i)));
  }
  size_t c = static_cast<size_t>(SumEpi64(acc));
  for (; i < n; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(w[i]));
  }
  return c;
}

size_t Avx2Hamming(const uint64_t* a, const uint64_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i diff = _mm256_xor_si256(Load4(a + i), Load4(b + i));
    acc = _mm256_add_epi64(acc, PopcountEpi64(diff));
  }
  size_t c = static_cast<size_t>(SumEpi64(acc));
  for (; i < n; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(a[i] ^ b[i]));
  }
  return c;
}

DiffCounts Avx2Diff(const uint64_t* old_w, const uint64_t* new_w,
                    size_t n) {
  __m256i set_acc = _mm256_setzero_si256();
  __m256i reset_acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i ov = Load4(old_w + i);
    __m256i nv = Load4(new_w + i);
    __m256i diff = _mm256_xor_si256(ov, nv);
    set_acc = _mm256_add_epi64(set_acc,
                               PopcountEpi64(_mm256_and_si256(diff, nv)));
    reset_acc = _mm256_add_epi64(
        reset_acc, PopcountEpi64(_mm256_and_si256(diff, ov)));
  }
  DiffCounts d;
  d.sets = static_cast<size_t>(SumEpi64(set_acc));
  d.resets = static_cast<size_t>(SumEpi64(reset_acc));
  for (; i < n; ++i) {
    uint64_t diff = old_w[i] ^ new_w[i];
    if (diff == 0) continue;
    d.sets += static_cast<size_t>(__builtin_popcountll(diff & new_w[i]));
    d.resets +=
        static_cast<size_t>(__builtin_popcountll(diff & old_w[i]));
  }
  return d;
}

void Avx2BitsToFloats(const uint64_t* words, size_t num_bits,
                      float* out) {
  // One source byte expands to 8 floats: broadcast the byte, isolate
  // each lane's bit, compare to produce an all-ones mask, and AND with
  // the bit pattern of 1.0f.
  const __m256i bit_of_lane =
      _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256 ones = _mm256_set1_ps(1.0f);
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(words);
  const size_t full_bytes = num_bits / 8;
  for (size_t i = 0; i < full_bytes; ++i) {
    __m256i b = _mm256_set1_epi32(bytes[i]);
    __m256i is_set =
        _mm256_cmpeq_epi32(_mm256_and_si256(b, bit_of_lane), bit_of_lane);
    _mm256_storeu_ps(out + i * 8,
                     _mm256_and_ps(_mm256_castsi256_ps(is_set), ones));
  }
  for (size_t bit = full_bytes * 8; bit < num_bits; ++bit) {
    out[bit] = static_cast<float>((words[bit >> 6] >> (bit & 63)) & 1u);
  }
}

void Avx2Add(float* dst, const float* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void Avx2Dot8(const float* a, const float* b, size_t ldb, size_t k,
              float* out) {
  // Eight output columns live in eight lanes; a strided gather pulls
  // b[j][p] for j = 0..7 each step, and every lane accumulates its
  // products in ascending p — the scalar accumulation order.
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

void Avx2Gemv(const float* a, const float* b, size_t k, size_t n,
              float* c) {
  // Column tiles wide enough to keep the accumulators in registers for
  // the whole k-loop: 32 floats (4 ymm), then 8, then a scalar tail.
  // Every c[j] still sums its nonzero a[p] terms in ascending p with
  // one mul and one add per term — bit-identical to the scalar loop.
  size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
      const float av = a[p];
      if (av == 0.0f) continue;
      const __m256 vav = _mm256_set1_ps(av);
      const float* brow = b + p * n + j;
      acc0 = _mm256_add_ps(acc0,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow)));
      acc1 = _mm256_add_ps(acc1,
                           _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 8)));
      acc2 = _mm256_add_ps(
          acc2, _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 16)));
      acc3 = _mm256_add_ps(
          acc3, _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 24)));
    }
    _mm256_storeu_ps(c + j, acc0);
    _mm256_storeu_ps(c + j + 8, acc1);
    _mm256_storeu_ps(c + j + 16, acc2);
    _mm256_storeu_ps(c + j + 24, acc3);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
      const float av = a[p];
      if (av == 0.0f) continue;
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av),
                                             _mm256_loadu_ps(b + p * n + j)));
    }
    _mm256_storeu_ps(c + j, acc);
  }
  if (j < n) {
    for (size_t jj = j; jj < n; ++jj) c[jj] = 0.0f;
    for (size_t p = 0; p < k; ++p) {
      const float av = a[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (size_t jj = j; jj < n; ++jj) c[jj] += av * brow[jj];
    }
  }
}

/// acc + (av * bv masked to the lanes of nz): with nz clear the sum adds
/// +0.0, which leaves acc as it was — acc starts at +0.0 and a sum of
/// +0.0 and anything is never -0.0 — so this is gemv_f32's skipped zero
/// term without a branch, also when bv is infinite or NaN.
inline __m256 MulAddNonzero(__m256 acc, __m256 nz, __m256 av, __m256 bv) {
  return _mm256_add_ps(acc, _mm256_and_ps(nz, _mm256_mul_ps(av, bv)));
}

/// All-ones lanes when `av` (a broadcast a[r][p]) is not 0.0 or -0.0 —
/// NEQ_UQ, so a NaN term is added like gemv_f32's `av == 0.0f` test
/// adds it.
inline __m256 Nonzero(__m256 av) {
  return _mm256_cmp_ps(av, _mm256_setzero_ps(), _CMP_NEQ_UQ);
}

void Avx2Gemm(const float* a, const float* b, size_t k, size_t n,
              float* c) {
  // Column tiles of 16 floats in 4 rows x 2 ymm accumulators (each b
  // load feeds the four output rows), then 8-wide tiles, then a scalar
  // tail. Per element: ascending p, mul then add, zero a terms masked
  // off — bit-identical to gemv_f32.
  const float* ar[4] = {a, a + k, a + 2 * k, a + 3 * k};
  float* const cr[4] = {c, c + n, c + 2 * n, c + 3 * n};
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc[4][2];
    for (auto& row : acc) {
      row[0] = _mm256_setzero_ps();
      row[1] = _mm256_setzero_ps();
    }
    for (size_t p = 0; p < k; ++p) {
      const float* brow = b + p * n + j;
      const __m256 bv0 = _mm256_loadu_ps(brow);
      const __m256 bv1 = _mm256_loadu_ps(brow + 8);
      for (int r = 0; r < 4; ++r) {
        const __m256 av = _mm256_set1_ps(ar[r][p]);
        const __m256 nz = Nonzero(av);
        acc[r][0] = MulAddNonzero(acc[r][0], nz, av, bv0);
        acc[r][1] = MulAddNonzero(acc[r][1], nz, av, bv1);
      }
    }
    for (int r = 0; r < 4; ++r) {
      _mm256_storeu_ps(cr[r] + j, acc[r][0]);
      _mm256_storeu_ps(cr[r] + j + 8, acc[r][1]);
    }
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                     _mm256_setzero_ps(), _mm256_setzero_ps()};
    for (size_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_loadu_ps(b + p * n + j);
      for (int r = 0; r < 4; ++r) {
        const __m256 av = _mm256_set1_ps(ar[r][p]);
        acc[r] = MulAddNonzero(acc[r], Nonzero(av), av, bv);
      }
    }
    for (int r = 0; r < 4; ++r) _mm256_storeu_ps(cr[r] + j, acc[r]);
  }
  if (j < n) {
    for (int r = 0; r < 4; ++r) {
      for (size_t jj = j; jj < n; ++jj) cr[r][jj] = 0.0f;
    }
    for (size_t p = 0; p < k; ++p) {
      const float* brow = b + p * n;
      for (int r = 0; r < 4; ++r) {
        const float av = ar[r][p];
        if (av == 0.0f) continue;
        for (size_t jj = j; jj < n; ++jj) cr[r][jj] += av * brow[jj];
      }
    }
  }
}

void Avx2Adam(float* value, float* m, float* v, const float* grad,
              size_t n, const AdamStep& step) {
  // Eight parameters per step, then the scalar loop for the tail; the
  // same operations in the same order, each one IEEE-rounded (div and
  // sqrt are exact-rounded instructions, not approximations).
  const float one_minus_b1 = 1.0f - step.beta1;
  const float one_minus_b2 = 1.0f - step.beta2;
  const __m256 b1 = _mm256_set1_ps(step.beta1);
  const __m256 omb1 = _mm256_set1_ps(one_minus_b1);
  const __m256 b2 = _mm256_set1_ps(step.beta2);
  const __m256 omb2 = _mm256_set1_ps(one_minus_b2);
  const __m256 c1 = _mm256_set1_ps(step.correction1);
  const __m256 c2 = _mm256_set1_ps(step.correction2);
  const __m256 lr = _mm256_set1_ps(step.lr);
  const __m256 eps = _mm256_set1_ps(step.eps);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_loadu_ps(grad + i);
    const __m256 mi = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(omb1, g));
    const __m256 vi =
        _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(_mm256_mul_ps(omb2, g), g));
    const __m256 update = _mm256_div_ps(
        _mm256_mul_ps(lr, _mm256_div_ps(mi, c1)),
        _mm256_add_ps(_mm256_sqrt_ps(_mm256_div_ps(vi, c2)), eps));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    _mm256_storeu_ps(value + i,
                     _mm256_sub_ps(_mm256_loadu_ps(value + i), update));
  }
  for (; i < n; ++i) {
    const float g = grad[i];
    const float mi = step.beta1 * m[i] + one_minus_b1 * g;
    const float vi = step.beta2 * v[i] + one_minus_b2 * g * g;
    m[i] = mi;
    v[i] = vi;
    value[i] -= step.lr * (mi / step.correction1) /
                (__builtin_sqrtf(vi / step.correction2) + step.eps);
  }
}

/// Calls f(p) for every set bit p < k of `words`, in ascending p (a
/// per-TU copy: a shared inline would risk the linker picking this
/// ISA-flagged body for the scalar tier).
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

void Avx2GemvBits(const uint64_t* words, size_t k, const float* b,
                  size_t n, float* c) {
  // 64-column tiles in 8 ymm accumulators (a 128-wide hidden layer is
  // two walks of the set bits), then 8-wide tiles, then a scalar tail.
  // Every c[j] adds row p's entry for each set bit in ascending p from
  // +0.0 — the additions gemv_f32 makes on 0/1 floats.
  size_t j = 0;
  for (; j + 64 <= n; j += 64) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    __m256 acc4 = _mm256_setzero_ps();
    __m256 acc5 = _mm256_setzero_ps();
    __m256 acc6 = _mm256_setzero_ps();
    __m256 acc7 = _mm256_setzero_ps();
    ForEachSetBit(words, k, [&](size_t p) {
      const float* brow = b + p * n + j;
      acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(brow));
      acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(brow + 8));
      acc2 = _mm256_add_ps(acc2, _mm256_loadu_ps(brow + 16));
      acc3 = _mm256_add_ps(acc3, _mm256_loadu_ps(brow + 24));
      acc4 = _mm256_add_ps(acc4, _mm256_loadu_ps(brow + 32));
      acc5 = _mm256_add_ps(acc5, _mm256_loadu_ps(brow + 40));
      acc6 = _mm256_add_ps(acc6, _mm256_loadu_ps(brow + 48));
      acc7 = _mm256_add_ps(acc7, _mm256_loadu_ps(brow + 56));
    });
    _mm256_storeu_ps(c + j, acc0);
    _mm256_storeu_ps(c + j + 8, acc1);
    _mm256_storeu_ps(c + j + 16, acc2);
    _mm256_storeu_ps(c + j + 24, acc3);
    _mm256_storeu_ps(c + j + 32, acc4);
    _mm256_storeu_ps(c + j + 40, acc5);
    _mm256_storeu_ps(c + j + 48, acc6);
    _mm256_storeu_ps(c + j + 56, acc7);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    ForEachSetBit(words, k, [&](size_t p) {
      acc = _mm256_add_ps(acc, _mm256_loadu_ps(b + p * n + j));
    });
    _mm256_storeu_ps(c + j, acc);
  }
  if (j < n) {
    for (size_t jj = j; jj < n; ++jj) c[jj] = 0.0f;
    ForEachSetBit(words, k, [&](size_t p) {
      const float* brow = b + p * n;
      for (size_t jj = j; jj < n; ++jj) c[jj] += brow[jj];
    });
  }
}

// CRC32C via the SSE4.2 crc32 instruction (the crc32 unit is baseline
// on every AVX2 CPU and -mavx2 implies -msse4.2). The instruction works
// on the bit-inverted running state, so invert on entry/exit to keep the
// kernel's standard seed-0 chaining convention. Exact integer math:
// bit-identical to the scalar table by construction.
uint32_t Avx2Crc32c(uint32_t crc, const void* data, size_t n) {
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

const KernelOps kAvx2Ops = {
    Avx2Popcount, Avx2Hamming, Avx2Diff,  Avx2BitsToFloats,
    Avx2Add,      Avx2Dot8,    Avx2Gemv,  Avx2Gemm,
    Avx2GemvBits, Avx2Crc32c,  Avx2Adam,
};

}  // namespace

const KernelOps* Avx2Ops() { return &kAvx2Ops; }

}  // namespace e2nvm::internal

#else  // !__AVX2__

namespace e2nvm::internal {
const KernelOps* Avx2Ops() { return nullptr; }
}  // namespace e2nvm::internal

#endif  // __AVX2__

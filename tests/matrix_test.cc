#include "ml/matrix.h"

#include <gtest/gtest.h>

namespace e2nvm::ml {
namespace {

Matrix M(std::initializer_list<std::initializer_list<float>> rows) {
  size_t r = rows.size();
  size_t c = rows.begin()->size();
  Matrix m(r, c);
  size_t i = 0;
  for (const auto& row : rows) {
    size_t j = 0;
    for (float v : row) m(i, j++) = v;
    ++i;
  }
  return m;
}

void ExpectMatrixNear(const Matrix& a, const Matrix& b, float tol = 1e-5f) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a(i, j), b(i, j), tol) << i << "," << j;
    }
  }
}

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (float v : m.data()) EXPECT_EQ(v, 0.0f);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a = M({{1, 2}, {3, 4}});
  Matrix b = M({{5, 6}, {7, 8}});
  ExpectMatrixNear(MatMul(a, b), M({{19, 22}, {43, 50}}));
}

TEST(MatrixTest, MatMulRectangular) {
  Matrix a = M({{1, 2, 3}});           // 1x3
  Matrix b = M({{1}, {2}, {3}});       // 3x1
  ExpectMatrixNear(MatMul(a, b), M({{14}}));
  ExpectMatrixNear(MatMul(b, a),
                   M({{1, 2, 3}, {2, 4, 6}, {3, 6, 9}}));
}

TEST(MatrixTest, TransposedVariantsAgree) {
  Rng rng(3);
  Matrix a(4, 6), b(6, 5);
  for (auto& v : a.data()) v = rng.NextFloat() - 0.5f;
  for (auto& v : b.data()) v = rng.NextFloat() - 0.5f;
  Matrix ab = MatMul(a, b);
  // a * b == a * (b^T)^T via MatMulTransB with bt = b^T.
  Matrix bt(5, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 5; ++j) bt(j, i) = b(i, j);
  }
  ExpectMatrixNear(MatMulTransB(a, bt), ab);
  // a * b == (a^T)^T * b via MatMulTransA with at = a^T.
  Matrix at(6, 4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 6; ++j) at(j, i) = a(i, j);
  }
  ExpectMatrixNear(MatMulTransA(at, b), ab);
}

TEST(MatrixTest, AddInPlace) {
  Matrix a = M({{1, 2}});
  Matrix b = M({{10, 20}});
  AddInPlace(a, b);
  ExpectMatrixNear(a, M({{11, 22}}));
}

TEST(MatrixTest, AddRowVector) {
  Matrix a = M({{1, 2}, {3, 4}});
  AddRowVector(a, std::vector<float>{10, 20});
  ExpectMatrixNear(a, M({{11, 22}, {13, 24}}));
}

TEST(MatrixTest, HadamardAndColSums) {
  Matrix a = M({{1, 2}, {3, 4}});
  Matrix b = M({{2, 2}, {2, 2}});
  ExpectMatrixNear(Hadamard(a, b), M({{2, 4}, {6, 8}}));
  auto cs = ColSums(a);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_FLOAT_EQ(cs[0], 4.0f);
  EXPECT_FLOAT_EQ(cs[1], 6.0f);
}

TEST(MatrixTest, FrobeniusSq) {
  Matrix a = M({{3, 4}});
  EXPECT_DOUBLE_EQ(FrobeniusSq(a), 25.0);
}

TEST(MatrixTest, XavierInitBounded) {
  Rng rng(5);
  Matrix w(64, 32);
  w.XavierInit(rng, 64, 32);
  float limit = std::sqrt(6.0f / (64 + 32));
  bool nonzero = false;
  for (float v : w.data()) {
    EXPECT_LE(std::abs(v), limit);
    if (v != 0) nonzero = true;
  }
  EXPECT_TRUE(nonzero);
}

TEST(MatrixTest, CopyRowFrom) {
  Matrix a = M({{1, 2}, {3, 4}});
  Matrix b(2, 2);
  b.CopyRowFrom(a, 1, 0);
  EXPECT_FLOAT_EQ(b(0, 0), 3);
  EXPECT_FLOAT_EQ(b(0, 1), 4);
}

TEST(MatrixTest, StorageIsCacheLineAligned) {
  auto aligned = [](const Matrix& m) {
    return reinterpret_cast<uintptr_t>(m.Row(0)) % kCacheLineBytes == 0;
  };
  // Odd shapes, so no size class of the underlying allocator lines the
  // buffers up by itself.
  std::vector<Matrix> held;
  for (size_t cols : {1u, 3u, 7u, 10u, 64u, 65u, 513u}) {
    held.emplace_back(3, cols);
    EXPECT_TRUE(aligned(held.back())) << "3 x " << cols;
  }
  Matrix m(1, 5, std::vector<float>{1, 2, 3, 4, 5});
  EXPECT_TRUE(aligned(m));
  m.EnsureShape(17, 33);  // Grows: a fresh buffer.
  EXPECT_TRUE(aligned(m));
  m(16, 32) = 7.0f;
  Matrix copy(m);
  EXPECT_TRUE(aligned(copy));
  Matrix assigned;
  assigned = m;
  EXPECT_TRUE(aligned(assigned));
  const float* before = m.Row(0);
  Matrix moved(std::move(m));
  EXPECT_EQ(moved.Row(0), before);  // Moves keep the buffer.
  EXPECT_TRUE(aligned(moved));
  Matrix move_assigned;
  move_assigned = std::move(moved);
  EXPECT_TRUE(aligned(move_assigned));
  EXPECT_EQ(move_assigned(16, 32), 7.0f);
  EXPECT_EQ(copy(16, 32), 7.0f);
}

/// Rows of `dim` bits, each set with probability 0.4.
BitRows RandomBits(size_t rows, size_t dim, uint64_t seed) {
  Rng rng(seed);
  BitRows x(rows, dim);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t d = 0; d < dim; ++d) {
      if (rng.NextBernoulli(0.4)) {
        x.BitRow(r)[d >> 6] |= uint64_t{1} << (d & 63);
      }
    }
  }
  return x;
}

TEST(BitRowsTest, TransposeMatchesNaiveOracle) {
  for (size_t rows : {1, 63, 64, 65, 130}) {
    for (size_t dim : {1, 63, 64, 100, 512}) {
      BitRows x = RandomBits(rows, dim, rows * 1000 + dim);
      BitRows xt;
      // Stale contents must not leak into the result.
      xt.bits.assign(4096, ~uint64_t{0});
      TransposeInto(x, &xt);
      ASSERT_EQ(xt.num_rows, dim);
      ASSERT_EQ(xt.dim, rows);
      ASSERT_EQ(xt.row_words, (rows + 63) / 64);
      ASSERT_EQ(xt.bits.size(), dim * xt.row_words);
      for (size_t i = 0; i < dim; ++i) {
        for (size_t w = 0; w < xt.row_words; ++w) {
          // Naive oracle: bit p of mask word w of column i is x(w*64+p, i).
          uint64_t want = 0;
          for (size_t p = 0; p < 64 && w * 64 + p < rows; ++p) {
            if (x.Get(w * 64 + p, i)) want |= uint64_t{1} << p;
          }
          ASSERT_EQ(xt.BitRow(i)[w], want)
              << "rows " << rows << " dim " << dim << " col " << i;
        }
      }
    }
  }
}

TEST(BitRowsTest, BitMatMulMatchesFloatGemmsBitForBit) {
  // Forward (X W) and the weight gradient (X^T dY, via the transpose)
  // against the float GEMMs on the 0.0/1.0 expansion: same additions in
  // the same order, so memcmp-equal, including a 70-row batch whose
  // transpose spans two words per column.
  for (size_t rows : {1, 64, 70}) {
    const size_t dim = 100, out = 24;
    BitRows x = RandomBits(rows, dim, rows);
    Matrix xf;
    x.ExpandInto(&xf);
    Rng rng(rows + 7);
    Matrix w(dim, out), dy(rows, out);
    for (auto& v : w.data()) v = rng.NextFloat() * 2.0f - 1.0f;
    for (auto& v : dy.data()) v = rng.NextFloat() * 2.0f - 1.0f;

    Matrix y;
    BitMatMulInto(x, w, &y);
    EXPECT_EQ(y.data(), MatMul(xf, w).data()) << rows;

    BitRows xt;
    TransposeInto(x, &xt);
    Matrix dw;
    BitMatMulInto(xt, dy, &dw);
    EXPECT_EQ(dw.data(), MatMulTransA(xf, dy).data()) << rows;
  }
}

TEST(BitRowsTest, ExpandIntoWritesZerosAndOnes) {
  BitRows x(2, 3);
  x.BitRow(0)[0] = 0b101;
  x.BitRow(1)[0] = 0b010;
  Matrix f;
  x.ExpandInto(&f);
  EXPECT_EQ(f.data(), (FloatStorage{1, 0, 1, 0, 1, 0}));
}

}  // namespace
}  // namespace e2nvm::ml

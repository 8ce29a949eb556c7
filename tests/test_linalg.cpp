#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "linalg/decomp.hpp"
#include "linalg/kmeans.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pca.hpp"

namespace eecs::linalg {
namespace {

Matrix random_matrix(int rows, int cols, Rng& rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m(r, c) = scale * rng.normal();
  }
  return m;
}

bool is_orthonormal_columns(const Matrix& m, double tol = 1e-8) {
  const Matrix gram = transpose_times(m, m);
  return max_abs_diff(gram, Matrix::identity(m.cols())) < tol;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  m(1, 2) = 5.0;
  EXPECT_EQ(m(1, 2), 5.0);
  EXPECT_EQ(m(0, 0), 0.0);
}

TEST(Matrix, InitializerList) {
  const Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m(2, 1), 6.0);
}

TEST(Matrix, OutOfBoundsAccessViolatesContract) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m(2, 0), ContractViolation);
  EXPECT_THROW((void)m(0, -1), ContractViolation);
}

TEST(Matrix, MultiplyMatchesHandComputation) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  const Matrix a(2, 3), b(2, 3);
  EXPECT_THROW((void)(a * b), ContractViolation);
}

TEST(Matrix, TransposeTimesEqualsExplicitTranspose) {
  Rng rng(1);
  const Matrix a = random_matrix(7, 4, rng);
  const Matrix b = random_matrix(7, 5, rng);
  EXPECT_LT(max_abs_diff(transpose_times(a, b), a.transposed() * b), 1e-12);
}

TEST(Matrix, IdentityIsMultiplicativeNeutral) {
  Rng rng(2);
  const Matrix a = random_matrix(4, 4, rng);
  EXPECT_LT(max_abs_diff(a * Matrix::identity(4), a), 1e-12);
  EXPECT_LT(max_abs_diff(Matrix::identity(4) * a, a), 1e-12);
}

TEST(Matrix, AddSubtractScale) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{4, 3}, {2, 1}};
  const Matrix sum = a + b;
  EXPECT_EQ(sum(0, 0), 5.0);
  const Matrix diff = sum - b;
  EXPECT_LT(max_abs_diff(diff, a), 1e-15);
  const Matrix scaled = a * 2.0;
  EXPECT_EQ(scaled(1, 1), 8.0);
}

TEST(Matrix, SliceColsAndRows) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix c = m.slice_cols(1, 3);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_EQ(c(1, 0), 5.0);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a{{1, 0, 2}, {0, 1, -1}};
  const std::vector<double> x{1, 2, 3};
  const auto y = a * std::span<const double>(x);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_EQ(y[0], 7.0);
  EXPECT_EQ(y[1], -1.0);
}

TEST(Qr, ReconstructsInput) {
  Rng rng(3);
  for (const auto& [m, n] : {std::pair{6, 4}, std::pair{4, 6}, std::pair{5, 5}}) {
    const Matrix a = random_matrix(m, n, rng);
    const QrResult qr = qr_decompose(a);
    EXPECT_LT(max_abs_diff(qr.q * qr.r, a), 1e-9) << m << "x" << n;
    EXPECT_TRUE(is_orthonormal_columns(qr.q));
  }
}

TEST(Qr, RIsUpperTriangular) {
  Rng rng(4);
  const Matrix a = random_matrix(5, 3, rng);
  const QrResult qr = qr_decompose(a);
  for (int i = 0; i < qr.r.rows(); ++i) {
    for (int j = 0; j < std::min(i, qr.r.cols()); ++j) EXPECT_EQ(qr.r(i, j), 0.0);
  }
}

TEST(OrthogonalComplement, SpansRemainingSpace) {
  Rng rng(5);
  const Matrix a = random_matrix(8, 3, rng);
  // Orthonormalize via QR first (precondition of orthogonal_complement).
  const Matrix basis = qr_decompose(a).q.slice_cols(0, 3);
  const Matrix comp = orthogonal_complement(basis);
  ASSERT_EQ(comp.rows(), 8);
  ASSERT_EQ(comp.cols(), 5);
  EXPECT_TRUE(is_orthonormal_columns(comp));
  // basis^T comp == 0 (the paper's x~^T x = 0 property).
  const Matrix cross = transpose_times(basis, comp);
  EXPECT_LT(cross.frobenius_norm(), 1e-8);
}

TEST(OrthogonalComplement, FullBasisYieldsEmpty) {
  const Matrix eye = Matrix::identity(4);
  const Matrix comp = orthogonal_complement(eye);
  EXPECT_EQ(comp.cols(), 0);
}

TEST(Svd, ReconstructsInputTallAndWide) {
  Rng rng(6);
  for (const auto& [m, n] : {std::pair{8, 5}, std::pair{5, 8}, std::pair{6, 6}}) {
    const Matrix a = random_matrix(m, n, rng);
    const SvdResult svd = svd_decompose(a);
    Matrix s(static_cast<int>(svd.singular_values.size()), static_cast<int>(svd.singular_values.size()));
    for (std::size_t i = 0; i < svd.singular_values.size(); ++i)
      s(static_cast<int>(i), static_cast<int>(i)) = svd.singular_values[i];
    const Matrix recon = svd.u * s * svd.v.transposed();
    EXPECT_LT(max_abs_diff(recon, a), 1e-8) << m << "x" << n;
  }
}

TEST(Svd, SingularValuesSortedAndNonNegative) {
  Rng rng(7);
  const Matrix a = random_matrix(10, 6, rng);
  const SvdResult svd = svd_decompose(a);
  for (std::size_t i = 0; i < svd.singular_values.size(); ++i) {
    EXPECT_GE(svd.singular_values[i], 0.0);
    if (i > 0) {
      EXPECT_LE(svd.singular_values[i], svd.singular_values[i - 1]);
    }
  }
}

TEST(Svd, FactorsAreOrthonormal) {
  Rng rng(8);
  const Matrix a = random_matrix(9, 4, rng);
  const SvdResult svd = svd_decompose(a);
  EXPECT_TRUE(is_orthonormal_columns(svd.u));
  EXPECT_TRUE(is_orthonormal_columns(svd.v));
}

TEST(Svd, KnownDiagonalCase) {
  const Matrix a{{3, 0}, {0, -2}};
  const SvdResult svd = svd_decompose(a);
  EXPECT_NEAR(svd.singular_values[0], 3.0, 1e-12);
  EXPECT_NEAR(svd.singular_values[1], 2.0, 1e-12);
}

TEST(Svd, RankDeficientMatrixHasZeroSingularValue) {
  // Second column is 2x the first.
  const Matrix a{{1, 2}, {2, 4}, {3, 6}};
  const SvdResult svd = svd_decompose(a);
  EXPECT_GT(svd.singular_values[0], 1.0);
  EXPECT_NEAR(svd.singular_values[1], 0.0, 1e-10);
}

TEST(Eig, DiagonalizesSymmetricMatrix) {
  Rng rng(9);
  const Matrix g = random_matrix(6, 6, rng);
  const Matrix sym = transpose_times(g, g);  // SPD.
  const EigResult eig = eig_symmetric(sym);
  // sym * v_i == lambda_i * v_i.
  for (int i = 0; i < 6; ++i) {
    const auto v = eig.eigenvectors.col(i);
    const auto sv = sym * std::span<const double>(v);
    for (int r = 0; r < 6; ++r) {
      EXPECT_NEAR(sv[static_cast<std::size_t>(r)],
                  eig.eigenvalues[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(r)], 1e-8);
    }
  }
}

TEST(Eig, EigenvaluesDescending) {
  Rng rng(10);
  const Matrix g = random_matrix(5, 5, rng);
  const EigResult eig = eig_symmetric(transpose_times(g, g));
  for (std::size_t i = 1; i < eig.eigenvalues.size(); ++i) {
    EXPECT_LE(eig.eigenvalues[i], eig.eigenvalues[i - 1]);
  }
}

TEST(SolveSpd, SolvesKnownSystem) {
  const Matrix a{{4, 1}, {1, 3}};
  const std::vector<double> b{1, 2};
  const auto x = solve_spd(a, b);
  EXPECT_NEAR(4 * x[0] + 1 * x[1], 1.0, 1e-12);
  EXPECT_NEAR(1 * x[0] + 3 * x[1], 2.0, 1e-12);
}

TEST(SolveSpd, RejectsIndefiniteMatrix) {
  const Matrix a{{0, 0}, {0, -1}};
  const std::vector<double> b{1, 1};
  EXPECT_THROW((void)solve_spd(a, b), std::runtime_error);
}

TEST(InvertSpd, ProducesInverse) {
  Rng rng(11);
  const Matrix g = random_matrix(5, 5, rng);
  Matrix spd = transpose_times(g, g);
  for (int i = 0; i < 5; ++i) spd(i, i) += 0.5;  // Well-conditioned.
  const Matrix inv = invert_spd(spd);
  EXPECT_LT(max_abs_diff(spd * inv, Matrix::identity(5)), 1e-8);
}

TEST(Pca, RecoversDominantDirection) {
  // Points spread along (1, 1)/sqrt(2) with small orthogonal noise.
  Rng rng(12);
  Matrix data(200, 2);
  for (int i = 0; i < 200; ++i) {
    const double t = rng.normal() * 5.0;
    const double n = rng.normal() * 0.1;
    data(i, 0) = t + n;
    data(i, 1) = t - n;
  }
  const Pca pca(data, 1);
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  const double d0 = std::abs(pca.basis()(0, 0));
  const double d1 = std::abs(pca.basis()(1, 0));
  EXPECT_NEAR(d0, inv_sqrt2, 0.02);
  EXPECT_NEAR(d1, inv_sqrt2, 0.02);
}

TEST(Pca, BasisIsOrthonormal) {
  Rng rng(13);
  const Matrix data = random_matrix(50, 8, rng);
  const Pca pca(data, 4);
  EXPECT_TRUE(is_orthonormal_columns(pca.basis()));
}

TEST(Pca, TransformCentersData) {
  Rng rng(15);
  Matrix data = random_matrix(40, 3, rng);
  for (int i = 0; i < data.rows(); ++i) data(i, 1) += 10.0;  // Shifted feature.
  const Pca pca(data, 2);
  // Mean of transformed data should be ~0.
  std::vector<double> mean(2, 0.0);
  for (int i = 0; i < data.rows(); ++i) {
    const std::vector<double> t = pca.transform(data.row(i));
    ASSERT_EQ(t.size(), mean.size());
    for (std::size_t c = 0; c < t.size(); ++c) mean[c] += t[c] / data.rows();
  }
  for (double m : mean) EXPECT_NEAR(m, 0.0, 1e-9);
}

TEST(Pca, InvalidComponentCountViolatesContract) {
  Rng rng(16);
  const Matrix data = random_matrix(10, 3, rng);
  EXPECT_THROW(Pca(data, 0), ContractViolation);
  EXPECT_THROW(Pca(data, 4), ContractViolation);
}

TEST(CovarianceAndMahalanobis, IdentityCovarianceIsEuclidean) {
  const Matrix inv_cov = Matrix::identity(2);
  const std::vector<double> a{0, 0}, b{3, 4};
  EXPECT_NEAR(mahalanobis(a, b, inv_cov), 5.0, 1e-12);
}

TEST(CovarianceAndMahalanobis, CovarianceOfKnownData) {
  // Two perfectly correlated variables.
  Matrix data(3, 2);
  data(0, 0) = 1; data(0, 1) = 2;
  data(1, 0) = 2; data(1, 1) = 4;
  data(2, 0) = 3; data(2, 1) = 6;
  const Matrix cov = covariance(data);
  EXPECT_NEAR(cov(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(cov(1, 1), 4.0, 1e-12);
}

TEST(Kmeans, SeparatesWellSeparatedClusters) {
  Rng rng(17);
  Matrix data(60, 2);
  for (int i = 0; i < 60; ++i) {
    const int cluster = i % 3;
    data(i, 0) = 10.0 * cluster + rng.normal() * 0.2;
    data(i, 1) = -5.0 * cluster + rng.normal() * 0.2;
  }
  const KmeansResult result = kmeans(data, 3, rng);
  // All members of a true cluster share an assignment.
  for (int i = 3; i < 60; ++i) {
    EXPECT_EQ(result.assignment[static_cast<std::size_t>(i)],
              result.assignment[static_cast<std::size_t>(i % 3)]);
  }
  EXPECT_LT(result.inertia, 60.0);
}

TEST(Kmeans, SingleClusterCentroidIsMean) {
  Rng rng(18);
  const Matrix data = random_matrix(30, 3, rng);
  const KmeansResult result = kmeans(data, 1, rng);
  const auto mean = column_mean(data);
  for (int c = 0; c < 3; ++c) EXPECT_NEAR(result.centroids(0, c), mean[static_cast<std::size_t>(c)], 1e-9);
}

TEST(Kmeans, InertiaNonIncreasingWithMoreClusters) {
  Rng rng(19);
  const Matrix data = random_matrix(80, 4, rng);
  double prev = 1e18;
  for (int k : {1, 2, 4, 8}) {
    Rng local(19);
    const KmeansResult result = kmeans(data, k, local);
    EXPECT_LE(result.inertia, prev * 1.05);  // Allow small non-monotonicity from local minima.
    prev = result.inertia;
  }
}

TEST(Kmeans, NearestCentroidFindsClosest) {
  Matrix centroids(2, 2);
  centroids(0, 0) = 0; centroids(0, 1) = 0;
  centroids(1, 0) = 10; centroids(1, 1) = 10;
  const std::vector<double> x{9.0, 9.5};
  EXPECT_EQ(nearest_centroid(centroids, x), 1);
}

TEST(Kmeans, InvalidKViolatesContract) {
  Rng rng(20);
  const Matrix data = random_matrix(5, 2, rng);
  EXPECT_THROW((void)kmeans(data, 0, rng), ContractViolation);
  EXPECT_THROW((void)kmeans(data, 6, rng), ContractViolation);
}

// Property sweep: SVD reconstruction across shapes.
class SvdShapeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SvdShapeTest, ReconstructionAndOrthogonality) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + n));
  const Matrix a = random_matrix(m, n, rng);
  const SvdResult svd = svd_decompose(a);
  Matrix s(static_cast<int>(svd.singular_values.size()), static_cast<int>(svd.singular_values.size()));
  for (std::size_t i = 0; i < svd.singular_values.size(); ++i)
    s(static_cast<int>(i), static_cast<int>(i)) = svd.singular_values[i];
  EXPECT_LT(max_abs_diff(svd.u * s * svd.v.transposed(), a), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapeTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 7}, std::pair{7, 2},
                                           std::pair{16, 16}, std::pair{3, 12}, std::pair{20, 5},
                                           std::pair{5, 20}, std::pair{30, 30}));

}  // namespace
}  // namespace eecs::linalg

// Small dense linear algebra for the regression and solver code.
//
// The problems in this library are tiny (≤ a few thousand samples ×
// ≤ 6 regressors; Jacobians of ≤ 8 unknowns), so a straightforward
// row-major dense matrix with Cholesky / QR factorizations is the right
// tool; there is deliberately no expression-template machinery.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "repro/common/ensure.hpp"

namespace repro::math {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Row-major brace construction for tests: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  Matrix transpose() const;
  Matrix operator*(const Matrix& rhs) const;
  Vector operator*(const Vector& v) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solve A·x = b for symmetric positive definite A via Cholesky.
/// Throws repro::Error if A is not SPD (within tolerance).
Vector solve_spd(const Matrix& a, const Vector& b);

/// Solve a general square system A·x = b via partially pivoted LU.
/// Throws repro::Error on (numerical) singularity.
Vector solve_lu(const Matrix& a, const Vector& b);

/// The LU kernel behind solve_lu, in place and allocation-free: `a`
/// holds the n×n matrix row-major and is overwritten by its factors;
/// `b` holds the right-hand side and is overwritten by x. Returns
/// false, leaving both clobbered, on a (numerically) zero pivot.
bool solve_lu_in_place(std::span<double> a, std::span<double> b);

/// Least-squares solution of A·x ≈ b (rows ≥ cols) via Householder QR.
/// More numerically robust than the normal equations when regressors
/// are nearly collinear, which happens for correlated HPC event rates.
Vector solve_least_squares(const Matrix& a, const Vector& b);

/// Conditioning report from solve_least_squares' QR factorization —
/// the solver-level signal callers use to name a rank-deficient
/// column instead of consuming garbage coefficients.
struct LeastSquaresDiag {
  /// A diagonal of R collapsed: |R(c,c)| fell below
  /// kRankTolerance · max|R(j,j)| (or to exactly zero), meaning
  /// column c is (numerically) a linear combination of the columns
  /// before it.
  bool rank_deficient = false;
  std::size_t column = 0;  // first offending column when deficient
  double min_diag = 0.0;   // smallest |R(c,c)| over all columns
  double max_diag = 0.0;   // largest |R(c,c)| over all columns
};

/// Relative pivot threshold below which a design column counts as
/// linearly dependent in solve_least_squares' rank diagnostics.
inline constexpr double kRankTolerance = 1e-12;

/// As solve_least_squares, but reports rank deficiency through `diag`
/// instead of throwing: when diag->rank_deficient comes back true the
/// returned vector is empty and must not be used.
Vector solve_least_squares(const Matrix& a, const Vector& b,
                           LeastSquaresDiag* diag);

/// Euclidean norm and dot product over vectors.
double norm2(std::span<const double> v);
double dot(std::span<const double> a, std::span<const double> b);

}  // namespace repro::math

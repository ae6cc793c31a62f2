#include "repro/math/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace repro::math {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    REPRO_ENSURE(r.size() == cols_, "ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  REPRO_ENSURE(cols_ == rhs.rows_, "matmul shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = 0; k < cols_; ++k) {
      const double v = (*this)(r, k);
      if (v == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c)
        out(r, c) += v * rhs(k, c);
    }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  REPRO_ENSURE(cols_ == v.size(), "matvec shape mismatch");
  Vector out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    out[r] = dot(row(r), v);
  return out;
}

Vector solve_spd(const Matrix& a, const Vector& b) {
  const std::size_t n = a.rows();
  REPRO_ENSURE(a.cols() == n && b.size() == n, "solve_spd shape mismatch");
  // In-place lower Cholesky factor.
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        REPRO_ENSURE(sum > 0.0, "matrix not positive definite");
        l(i, i) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  // Forward then back substitution.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

bool solve_lu_in_place(std::span<double> a, std::span<double> b) {
  const std::size_t n = b.size();
  REPRO_ENSURE(a.size() == n * n, "solve_lu shape mismatch");
  const auto lu = [&](std::size_t r, std::size_t c) -> double& {
    return a[r * n + c];
  };

  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::fabs(lu(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(lu(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (!(best > 1e-300)) return false;  // singular (or NaN) pivot
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu(pivot, c), lu(col, c));
      // Swapping b with the rows keeps b[i] = b_original[perm[i]].
      std::swap(b[pivot], b[col]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      lu(r, col) /= lu(col, col);
      const double f = lu(r, col);
      if (f == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c)
        lu(r, c) -= f * lu(col, c);
    }
  }

  // Forward then back substitution, each writing x over b.
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= lu(i, k) * b[k];
    b[i] = sum;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= lu(ii, k) * b[k];
    b[ii] = sum / lu(ii, ii);
  }
  return true;
}

Vector solve_lu(const Matrix& a, const Vector& b) {
  const std::size_t n = a.rows();
  REPRO_ENSURE(a.cols() == n && b.size() == n, "solve_lu shape mismatch");
  std::vector<double> lu(n * n);
  for (std::size_t r = 0; r < n; ++r)
    std::copy(a.row(r).begin(), a.row(r).end(), lu.begin() + r * n);
  Vector x = b;
  const bool nonsingular = solve_lu_in_place(lu, x);
  REPRO_ENSURE(nonsingular, "singular matrix in solve_lu");
  return x;
}

Vector solve_least_squares(const Matrix& a, const Vector& b) {
  LeastSquaresDiag diag;
  Vector x = solve_least_squares(a, b, &diag);
  REPRO_ENSURE(!diag.rank_deficient,
               "rank-deficient design matrix (column " +
                   std::to_string(diag.column) + " is linearly dependent)");
  return x;
}

Vector solve_least_squares(const Matrix& a, const Vector& b,
                           LeastSquaresDiag* diag) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  REPRO_ENSURE(m >= n && b.size() == m, "least squares needs rows >= cols");
  REPRO_ENSURE(diag != nullptr, "diagnostics out-param required");
  *diag = LeastSquaresDiag{};

  // Householder QR applied to [A | b] in place.
  Matrix r = a;
  Vector rhs = b;
  for (std::size_t col = 0; col < n; ++col) {
    // Build the Householder vector for column `col`, rows col..m-1.
    double norm = 0.0;
    for (std::size_t i = col; i < m; ++i) norm += r(i, col) * r(i, col);
    norm = std::sqrt(norm);
    if (r(col, col) > 0.0) norm = -norm;

    std::vector<double> v(m - col);
    v[0] = r(col, col) - norm;
    for (std::size_t i = col + 1; i < m; ++i) v[i - col] = r(i, col);
    double vtv = 0.0;
    for (double e : v) vtv += e * e;
    r(col, col) = norm;
    if (vtv <= 0.0) continue;

    auto reflect = [&](auto&& get, auto&& set) {
      double proj = 0.0;
      for (std::size_t i = col; i < m; ++i) proj += v[i - col] * get(i);
      const double f = 2.0 * proj / vtv;
      for (std::size_t i = col; i < m; ++i)
        set(i, get(i) - f * v[i - col]);
    };
    for (std::size_t c = col + 1; c < n; ++c)
      reflect([&](std::size_t i) { return r(i, c); },
              [&](std::size_t i, double x) { r(i, c) = x; });
    reflect([&](std::size_t i) { return rhs[i]; },
            [&](std::size_t i, double x) { rhs[i] = x; });
  }

  // Rank diagnostics from R's diagonal: a column whose pivot collapsed
  // relative to the largest pivot (or to zero outright) is numerically
  // a linear combination of the columns before it.
  diag->min_diag = std::fabs(r(0, 0));
  diag->max_diag = diag->min_diag;
  for (std::size_t c = 1; c < n; ++c) {
    const double d = std::fabs(r(c, c));
    diag->min_diag = std::min(diag->min_diag, d);
    diag->max_diag = std::max(diag->max_diag, d);
  }
  for (std::size_t c = 0; c < n; ++c) {
    if (std::fabs(r(c, c)) <= kRankTolerance * diag->max_diag) {
      diag->rank_deficient = true;
      diag->column = c;
      return {};
    }
  }

  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = rhs[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= r(ii, k) * x[k];
    x[ii] = sum / r(ii, ii);
  }
  return x;
}

double norm2(std::span<const double> v) {
  double s = 0.0;
  for (double e : v) s += e * e;
  return std::sqrt(s);
}

double dot(std::span<const double> a, std::span<const double> b) {
  REPRO_ENSURE(a.size() == b.size(), "dot shape mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace repro::math

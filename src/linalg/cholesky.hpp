#pragma once
// Cholesky factorization with adaptive jitter, plus triangular and SPD
// solves. The Gaussian-process surrogate is built entirely on these.

#include <vector>

#include "linalg/matrix.hpp"

namespace tunekit::linalg {

/// Lower-triangular Cholesky factor of an SPD matrix.
/// If the factorization fails (matrix not numerically PD), a diagonal
/// "jitter" is added and escalated up to `max_jitter`; throws
/// std::runtime_error if that is still insufficient.
///
/// `jitter_used`, if non-null, receives the jitter that succeeded (0 when
/// none was needed) — the GP logs it to explain conditioning issues.
Matrix cholesky(const Matrix& a, double initial_jitter = 1e-10,
                double max_jitter = 1e-2, double* jitter_used = nullptr);

/// Solve L y = b for lower-triangular L.
std::vector<double> solve_lower(const Matrix& l, const std::vector<double>& b);

/// Solve L Y = B in place for an n x m B holding one right-hand side per
/// column (B <- L^{-1} B). Each row update sweeps all m columns, in groups
/// of 32 (m a multiple of 32 is fastest), so the m substitutions run side by
/// side as vector code instead of as m latency-bound chains. Column j comes
/// out bit-identical to solve_lower(l, column j): the same subtractions in
/// the same (ascending) order, then the same division.
void solve_lower_batch(const Matrix& l, Matrix& b);

/// Solve L^T x = y for lower-triangular L.
std::vector<double> solve_lower_transpose(const Matrix& l, const std::vector<double>& y);

/// Solve A x = b given the Cholesky factor L of A.
std::vector<double> solve_with_cholesky(const Matrix& l, const std::vector<double>& b);

/// A^{-1} (full and symmetric) from the Cholesky factor L of A, as
/// L^{-T} L^{-1}; about twice the factorization's cost. The GP's likelihood
/// gradient and its leave-one-out diagnostics read it.
Matrix inverse_from_cholesky(const Matrix& l);

/// log |A| from its Cholesky factor: 2 Σ log L_ii.
double log_det_from_cholesky(const Matrix& l);

}  // namespace tunekit::linalg

#pragma once
// Small vector helpers shared by the GP, acquisition optimizers, and stats.

#include <cstddef>
#include <vector>

namespace tunekit::linalg {

double dot(const std::vector<double>& a, const std::vector<double>& b);
double norm2(const std::vector<double>& v);
double squared_distance(const std::vector<double>& a, const std::vector<double>& b);

/// Weighted squared distance Σ ((a_i - b_i) / scale_i)^2 — the workhorse of
/// ARD kernels.
double scaled_squared_distance(const std::vector<double>& a, const std::vector<double>& b,
                               const std::vector<double>& scale);
/// The same sum over `n` contiguous coordinates (e.g. Matrix::row_ptr rows),
/// unchecked and allocation-free; the vector overload delegates here.
double scaled_squared_distance(const double* a, const double* b, const double* scale,
                               std::size_t n);

std::vector<double> add(const std::vector<double>& a, const std::vector<double>& b);
std::vector<double> sub(const std::vector<double>& a, const std::vector<double>& b);
std::vector<double> scale(const std::vector<double>& a, double s);

/// Elementwise clamp into [lo, hi].
void clamp_inplace(std::vector<double>& v, double lo, double hi);

}  // namespace tunekit::linalg

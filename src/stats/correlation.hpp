#pragma once
// Correlation analyses for the methodology's data-insight step. The paper
// uses Pearson correlation to discover linear relationships (e.g. the ~0.6
// correlation between threadblock size and active threadblocks per SM that
// the occupancy constraint induces) and suggests grouping correlated
// parameters in one search.

#include <vector>

#include "linalg/matrix.hpp"

namespace tunekit::stats {

/// Pearson correlation coefficient; returns 0 when either series is
/// constant (no linear relationship measurable).
double pearson(const std::vector<double>& x, const std::vector<double>& y);

/// Column-wise Pearson correlation matrix of a samples x features matrix.
linalg::Matrix pearson_matrix(const linalg::Matrix& samples);

/// Pairs of features whose |pearson| exceeds `threshold`, as (i, j, r).
struct CorrelatedPair {
  std::size_t i;
  std::size_t j;
  double r;
};
std::vector<CorrelatedPair> correlated_pairs(const linalg::Matrix& samples,
                                             double threshold);

}  // namespace tunekit::stats

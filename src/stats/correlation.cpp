#include "stats/correlation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tunekit::stats {

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("pearson: need two equal-length series of size >= 2");
  }
  const double n = static_cast<double>(x.size());
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

linalg::Matrix pearson_matrix(const linalg::Matrix& samples) {
  const std::size_t d = samples.cols();
  linalg::Matrix corr(d, d, 0.0);
  std::vector<std::vector<double>> cols(d);
  for (std::size_t c = 0; c < d; ++c) cols[c] = samples.col(c);
  for (std::size_t i = 0; i < d; ++i) {
    corr(i, i) = 1.0;
    for (std::size_t j = i + 1; j < d; ++j) {
      const double r = pearson(cols[i], cols[j]);
      corr(i, j) = r;
      corr(j, i) = r;
    }
  }
  return corr;
}

std::vector<CorrelatedPair> correlated_pairs(const linalg::Matrix& samples,
                                             double threshold) {
  const linalg::Matrix corr = pearson_matrix(samples);
  std::vector<CorrelatedPair> out;
  for (std::size_t i = 0; i < corr.rows(); ++i) {
    for (std::size_t j = i + 1; j < corr.cols(); ++j) {
      if (std::abs(corr(i, j)) >= threshold) out.push_back({i, j, corr(i, j)});
    }
  }
  std::sort(out.begin(), out.end(), [](const CorrelatedPair& a, const CorrelatedPair& b) {
    return std::abs(a.r) > std::abs(b.r);
  });
  return out;
}

}  // namespace tunekit::stats

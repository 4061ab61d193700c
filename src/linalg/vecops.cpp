#include "linalg/vecops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tunekit::linalg {

namespace {
void check_same_size(std::size_t a, std::size_t b, const char* what) {
  if (a != b) throw std::invalid_argument(std::string(what) + ": size mismatch");
}
}  // namespace

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  check_same_size(a.size(), b.size(), "dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

double squared_distance(const std::vector<double>& a, const std::vector<double>& b) {
  check_same_size(a.size(), b.size(), "squared_distance");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double scaled_squared_distance(const std::vector<double>& a, const std::vector<double>& b,
                               const std::vector<double>& scale) {
  check_same_size(a.size(), b.size(), "scaled_squared_distance");
  check_same_size(a.size(), scale.size(), "scaled_squared_distance(scale)");
  return scaled_squared_distance(a.data(), b.data(), scale.data(), a.size());
}

double scaled_squared_distance(const double* a, const double* b, const double* scale,
                               std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (a[i] - b[i]) / scale[i];
    acc += d * d;
  }
  return acc;
}

std::vector<double> add(const std::vector<double>& a, const std::vector<double>& b) {
  check_same_size(a.size(), b.size(), "add");
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::vector<double> sub(const std::vector<double>& a, const std::vector<double>& b) {
  check_same_size(a.size(), b.size(), "sub");
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::vector<double> scale(const std::vector<double>& a, double s) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

void clamp_inplace(std::vector<double>& v, double lo, double hi) {
  for (double& x : v) x = std::clamp(x, lo, hi);
}

}  // namespace tunekit::linalg

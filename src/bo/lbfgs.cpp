#include "bo/lbfgs.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "linalg/vecops.hpp"

namespace tunekit::bo {

namespace {

using linalg::dot;

constexpr double kArmijo = 1e-4;
constexpr std::size_t kMaxBacktracks = 20;
constexpr std::size_t kMemory = 10;  // curvature pairs kept
// The stopping rule: projected-gradient max-norm, and the relative gain of
// one iteration.
constexpr double kGradTol = 1e-3;
constexpr double kRelTol = 1e-7;

struct Pair {
  std::vector<double> s, y;
  double rho;
};

/// -H g over the free variables (two-loop recursion); without curvature
/// pairs, the steepest-descent step scaled to a max-norm of at most 1.
std::vector<double> direction(const std::vector<double>& g, const std::vector<bool>& free,
                              const std::deque<Pair>& pairs) {
  const std::size_t n = g.size();
  std::vector<double> q(n);
  for (std::size_t i = 0; i < n; ++i) q[i] = free[i] ? g[i] : 0.0;
  if (pairs.empty()) {
    double gmax = 0.0;
    for (double v : q) gmax = std::max(gmax, std::abs(v));
    const double scale = gmax > 1.0 ? 1.0 / gmax : 1.0;
    for (double& v : q) v = -scale * v;
    return q;
  }
  std::vector<double> a(pairs.size());
  for (std::size_t k = pairs.size(); k-- > 0;) {
    a[k] = pairs[k].rho * dot(pairs[k].s, q);
    for (std::size_t i = 0; i < n; ++i) q[i] -= a[k] * pairs[k].y[i];
  }
  const Pair& last = pairs.back();
  const double gamma = dot(last.s, last.y) / dot(last.y, last.y);
  for (double& v : q) v *= gamma;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const double b = pairs[k].rho * dot(pairs[k].y, q);
    for (std::size_t i = 0; i < n; ++i) q[i] += pairs[k].s[i] * (a[k] - b);
  }
  for (std::size_t i = 0; i < n; ++i) q[i] = free[i] ? -q[i] : 0.0;
  return q;
}

}  // namespace

LbfgsResult projected_lbfgs(const ValueAndGradient& f, std::vector<double> x0,
                            const LbfgsOptions& options) {
  const std::size_t n = x0.size();
  const std::vector<double>& lo = options.lower;
  const std::vector<double>& hi = options.upper;
  if (n == 0) throw std::invalid_argument("projected_lbfgs: empty start point");
  if (lo.size() != n || hi.size() != n) {
    throw std::invalid_argument("projected_lbfgs: bound arity mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!(lo[i] <= hi[i])) throw std::invalid_argument("projected_lbfgs: empty box");
  }
  const auto clamp = [&](std::size_t i, double v) { return std::clamp(v, lo[i], hi[i]); };

  LbfgsResult result;
  for (std::size_t i = 0; i < n; ++i) x0[i] = clamp(i, x0[i]);
  std::vector<double> x = std::move(x0);
  std::vector<double> g(n, 0.0);
  double fx = f(x, g);
  ++result.evaluations;

  std::deque<Pair> pairs;
  std::vector<double> x_new(n), g_new(n);
  std::vector<bool> free(n);
  while (std::isfinite(fx) && result.iterations < options.max_iters) {
    double pg = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      pg = std::max(pg, std::abs(x[i] - clamp(i, x[i] - g[i])));
      // On a bound with the gradient pushing outward: held fixed this step.
      free[i] = !((x[i] <= lo[i] && g[i] > 0.0) || (x[i] >= hi[i] && g[i] < 0.0));
    }
    if (pg <= kGradTol) break;
    ++result.iterations;

    // Armijo backtracking along P(x + t d); on failure, retry once along
    // the steepest-descent step with the curvature pairs dropped.
    bool accepted = false;
    double f_new = fx;
    while (!accepted) {
      std::vector<double> d = direction(g, free, pairs);
      double t = 1.0;
      for (std::size_t tries = 0; tries < kMaxBacktracks && !accepted; ++tries, t *= 0.5) {
        double decrease = 0.0;  // first-order prediction g . (x(t) - x)
        for (std::size_t i = 0; i < n; ++i) {
          x_new[i] = clamp(i, x[i] + t * d[i]);
          decrease += g[i] * (x_new[i] - x[i]);
        }
        if (!(decrease < 0.0)) continue;
        f_new = f(x_new, g_new);
        ++result.evaluations;
        accepted = f_new <= fx + kArmijo * decrease;
      }
      if (accepted || pairs.empty()) break;
      pairs.clear();
    }
    if (!accepted) break;

    Pair p{std::vector<double>(n), std::vector<double>(n), 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      p.s[i] = x_new[i] - x[i];
      p.y[i] = g_new[i] - g[i];
    }
    const double sy = dot(p.s, p.y);
    if (sy > 1e-12 * std::sqrt(dot(p.s, p.s) * dot(p.y, p.y))) {
      p.rho = 1.0 / sy;
      pairs.push_back(std::move(p));
      if (pairs.size() > kMemory) pairs.pop_front();
    }
    const double gain = fx - f_new;
    x.swap(x_new);
    g.swap(g_new);
    fx = f_new;
    if (gain < kRelTol * std::max(1.0, std::abs(fx))) break;
  }

  result.x = std::move(x);
  result.value = fx;
  return result;
}

}  // namespace tunekit::bo

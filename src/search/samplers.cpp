#include "search/samplers.hpp"

#include <stdexcept>

namespace tunekit::search {

std::vector<std::vector<double>> uniform_unit(std::size_t n, std::size_t dim,
                                              tunekit::Rng& rng) {
  std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
  for (auto& p : pts) {
    for (auto& x : p) x = rng.uniform();
  }
  return pts;
}

std::vector<std::vector<double>> latin_hypercube_unit(std::size_t n, std::size_t dim,
                                                      tunekit::Rng& rng) {
  std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
  std::vector<std::size_t> perm(n);
  for (std::size_t d = 0; d < dim; ++d) {
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    rng.shuffle(perm);
    for (std::size_t i = 0; i < n; ++i) {
      // Jittered position inside stratum perm[i].
      pts[i][d] = (static_cast<double>(perm[i]) + rng.uniform()) / static_cast<double>(n);
    }
  }
  return pts;
}

std::vector<Config> sample_valid_configs(const SearchSpace& space, std::size_t n,
                                         tunekit::Rng& rng, bool latin_hypercube) {
  std::vector<Config> out;
  out.reserve(n);
  const auto unit = latin_hypercube ? latin_hypercube_unit(n, space.size(), rng)
                                    : uniform_unit(n, space.size(), rng);
  for (const auto& u : unit) {
    Config c = space.decode_unit(u);
    if (space.is_valid(c)) {
      out.push_back(std::move(c));
    } else if (space.has_repair()) {
      Config fixed = space.repair(std::move(c));
      if (space.is_valid(fixed)) out.push_back(std::move(fixed));
    }
  }
  // Top up rejected designs with plain rejection sampling.
  while (out.size() < n) {
    out.push_back(space.sample_valid(rng));
  }
  return out;
}

std::vector<Config> grid_configs(const SearchSpace& space, std::size_t real_levels,
                                 std::size_t max_points) {
  if (real_levels < 2) throw std::invalid_argument("grid_configs: real_levels < 2");
  // Collect the level list per dimension.
  std::vector<std::vector<double>> levels(space.size());
  double total = 1.0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const auto& p = space.param(i);
    if (p.cardinality() == 0) {
      levels[i].resize(real_levels);
      for (std::size_t k = 0; k < real_levels; ++k) {
        levels[i][k] =
            p.lo() + (p.hi() - p.lo()) * static_cast<double>(k) /
                         static_cast<double>(real_levels - 1);
      }
    } else if (p.kind() == ParamKind::Integer) {
      for (double v = p.lo(); v <= p.hi(); v += 1.0) levels[i].push_back(v);
    } else {
      levels[i] = p.levels();
    }
    total *= static_cast<double>(levels[i].size());
    if (total > static_cast<double>(max_points)) {
      throw std::runtime_error("grid_configs: grid exceeds max_points");
    }
  }

  std::vector<Config> out;
  out.reserve(static_cast<std::size_t>(total));
  Config current(space.size());
  // Odometer enumeration.
  std::vector<std::size_t> idx(space.size(), 0);
  for (;;) {
    for (std::size_t i = 0; i < space.size(); ++i) current[i] = levels[i][idx[i]];
    if (space.is_valid(current)) out.push_back(current);
    std::size_t d = 0;
    while (d < space.size()) {
      if (++idx[d] < levels[d].size()) break;
      idx[d] = 0;
      ++d;
    }
    if (d == space.size()) break;
  }
  return out;
}

}  // namespace tunekit::search

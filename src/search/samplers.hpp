#pragma once
// Design-of-experiments samplers. BO initialization uses Latin hypercube
// (good low-dimensional stratification with few points); Random Search uses
// uniform sampling; the Grid backend enumerates grid_configs.

#include <vector>

#include "common/rng.hpp"
#include "search/space.hpp"

namespace tunekit::search {

/// `n` uniform unit-cube points in `dim` dimensions.
std::vector<std::vector<double>> uniform_unit(std::size_t n, std::size_t dim,
                                              tunekit::Rng& rng);

/// Latin hypercube design: each dimension is stratified into n cells, one
/// sample per cell, cells permuted independently per dimension.
std::vector<std::vector<double>> latin_hypercube_unit(std::size_t n, std::size_t dim,
                                                      tunekit::Rng& rng);

/// Decode unit-cube points through the space and keep only valid configs.
/// Tops up with rejection sampling until `n` valid configs are collected
/// (throws if the constraint acceptance rate is pathologically low).
std::vector<Config> sample_valid_configs(const SearchSpace& space, std::size_t n,
                                         tunekit::Rng& rng, bool latin_hypercube = true);

/// Full-factorial grid over discrete levels; Real parameters get
/// `real_levels` equispaced levels. Returns only the valid configurations
/// (SearchSpace::is_valid), in odometer order. Throws if the full grid would
/// exceed `max_points`.
std::vector<Config> grid_configs(const SearchSpace& space, std::size_t real_levels,
                                 std::size_t max_points = 2'000'000);

}  // namespace tunekit::search

// Property/fuzz tests over randomly generated mixed-kind search spaces:
// invariants of the unit codec, snapping, and sampling that every module
// above (samplers, BO, executor) silently relies on.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "search/samplers.hpp"
#include "search/space.hpp"

namespace tunekit::search {
namespace {

/// Random space with 1-8 parameters of mixed kinds.
SearchSpace random_space(Rng& rng) {
  SearchSpace space;
  const auto dims = static_cast<std::size_t>(rng.uniform_int(1, 8));
  for (std::size_t i = 0; i < dims; ++i) {
    const std::string name = std::string("p").append(std::to_string(i));
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        const double lo = rng.uniform(-100.0, 50.0);
        const double hi = lo + rng.uniform(0.5, 150.0);
        space.add(ParamSpec::real(name, lo, hi, lo + 0.5 * (hi - lo)));
        break;
      }
      case 1: {
        const auto lo = rng.uniform_int(-20, 10);
        const auto hi = lo + rng.uniform_int(0, 40);
        space.add(ParamSpec::integer(name, lo, hi, lo));
        break;
      }
      case 2: {
        std::vector<double> levels;
        double v = rng.uniform(0.5, 4.0);
        const auto n = rng.uniform_int(2, 9);
        for (int k = 0; k < n; ++k) {
          levels.push_back(v);
          v += rng.uniform(0.5, 10.0);
        }
        space.add(ParamSpec::ordinal(name, levels, levels.front()));
        break;
      }
      default: {
        const auto n = static_cast<std::size_t>(rng.uniform_int(2, 6));
        space.add(ParamSpec::categorical(name, n, 0));
        break;
      }
    }
  }
  return space;
}

class SpaceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpaceProperty, DecodeEncodeIsIdentityOnSamples) {
  Rng rng(GetParam());
  const SearchSpace space = random_space(rng);
  for (int trial = 0; trial < 50; ++trial) {
    const Config c = space.sample(rng);
    // Every sampled coordinate is representable.
    for (std::size_t i = 0; i < space.size(); ++i) {
      EXPECT_TRUE(space.param(i).is_valid_value(c[i]))
          << space.param(i).name() << " = " << c[i];
    }
    // decode(encode(c)) == c up to floating tolerance for reals, exactly
    // for discrete kinds.
    const Config back = space.decode_unit(space.encode_unit(c));
    for (std::size_t i = 0; i < space.size(); ++i) {
      if (space.param(i).cardinality() == 0) {
        const double span = space.param(i).hi() - space.param(i).lo();
        EXPECT_NEAR(back[i], c[i], 1e-9 * span);
      } else {
        EXPECT_DOUBLE_EQ(back[i], c[i]);
      }
    }
  }
}

TEST_P(SpaceProperty, SnapIsIdempotentAndRepresentable) {
  Rng rng(GetParam() ^ 0xabc);
  const SearchSpace space = random_space(rng);
  for (int trial = 0; trial < 50; ++trial) {
    Config wild(space.size());
    for (auto& v : wild) v = rng.uniform(-1000.0, 1000.0);
    const Config snapped = space.snap(wild);
    for (std::size_t i = 0; i < space.size(); ++i) {
      EXPECT_TRUE(space.param(i).is_valid_value(snapped[i]));
    }
    EXPECT_EQ(space.snap(snapped), snapped);  // idempotent
  }
}

TEST_P(SpaceProperty, DefaultsAreValidWithoutConstraints) {
  Rng rng(GetParam() ^ 0xdef);
  const SearchSpace space = random_space(rng);
  EXPECT_TRUE(space.is_valid(space.defaults()));
}

TEST_P(SpaceProperty, LhsConfigsCoverEveryParameterRange) {
  Rng rng(GetParam() ^ 0x123);
  const SearchSpace space = random_space(rng);
  const auto configs = sample_valid_configs(space, 32, rng);
  ASSERT_EQ(configs.size(), 32u);
  for (std::size_t i = 0; i < space.size(); ++i) {
    double lo = 1e300, hi = -1e300;
    for (const auto& c : configs) {
      lo = std::min(lo, c[i]);
      hi = std::max(hi, c[i]);
    }
    // Stratified sampling must spread over more than a third of the range
    // (for parameters with more than one value).
    const auto& p = space.param(i);
    if (p.cardinality() != 1) {
      EXPECT_GT(hi - lo, (p.hi() - p.lo()) / 3.0 - 1e-12) << p.name();
    }
  }
}

TEST_P(SpaceProperty, UnitEncodingStaysInUnitCube) {
  Rng rng(GetParam() ^ 0x456);
  const SearchSpace space = random_space(rng);
  for (int trial = 0; trial < 30; ++trial) {
    const auto u = space.encode_unit(space.sample(rng));
    for (double x : u) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpaceProperty,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull, 55ull, 66ull,
                                           77ull, 88ull));

}  // namespace
}  // namespace tunekit::search

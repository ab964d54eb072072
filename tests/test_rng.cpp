#include "util/rng.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

namespace caya {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1'000'000), b.uniform(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1'000'000) == b.uniform(0, 1'000'000)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  Rng rng(123);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, BytesProducesRequestedLength) {
  Rng rng(9);
  EXPECT_EQ(rng.bytes(16).size(), 16u);
  EXPECT_TRUE(rng.bytes(0).empty());
}

TEST(Rng, PickCoversAllElements) {
  Rng rng(5);
  const std::vector<int> xs = {1, 2, 3, 4};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.pick(xs));
  EXPECT_EQ(seen.size(), xs.size());
}

TEST(Rng, SaveAdvanceRestoreReplaysExactly) {
  Rng rng(2024);
  // Burn some draws so the engine cursor sits mid-table, not at a fresh
  // seed boundary.
  for (int i = 0; i < 37; ++i) (void)rng.uniform(0, 1'000'000);

  const std::string state = rng.save_state();
  std::vector<std::uint64_t> first;
  std::vector<double> first_units;
  for (int i = 0; i < 50; ++i) {
    first.push_back(rng.uniform(0, 1'000'000));
    first_units.push_back(rng.unit());
  }

  rng.restore_state(state);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.uniform(0, 1'000'000), first[i]);
    EXPECT_EQ(rng.unit(), first_units[i]);
  }
}

TEST(Rng, RestoreIntoDifferentInstance) {
  Rng source(7);
  for (int i = 0; i < 11; ++i) (void)source.unit();
  const std::string state = source.save_state();

  Rng other(999);  // unrelated seed; state restore must fully overwrite it
  other.restore_state(state);
  EXPECT_EQ(other.uniform(0, 1'000'000), source.uniform(0, 1'000'000));
  EXPECT_EQ(other.save_state(), source.save_state());
}

TEST(Rng, RestoreRejectsGarbage) {
  Rng rng(1);
  EXPECT_THROW(rng.restore_state("not an mt19937_64 state"),
               std::invalid_argument);
  // A failed restore must leave the stream untouched.
  Rng witness(1);
  EXPECT_EQ(rng.uniform(0, 1'000'000), witness.uniform(0, 1'000'000));
}

TEST(Rng, ForkIsIndependentOfParentDraws) {
  Rng a(42);
  Rng child = a.fork();
  // The child must be deterministic given the parent's seed...
  Rng b(42);
  Rng child2 = b.fork();
  EXPECT_EQ(child.uniform(0, 1'000'000), child2.uniform(0, 1'000'000));
}

// ---- Mt19937_64 against the standard engine ----------------------------
//
// The lazy engine must be std::mt19937_64 word for word: same draws, same
// textual state, at every point where seeding or a twist is partly done.

std::string standard_state(const std::mt19937_64& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

constexpr std::uint64_t kOracleSeeds[] = {
    0, 1, 5489, std::numeric_limits<std::uint64_t>::max()};

TEST(Rng, EngineMatchesStandardDrawsAndState) {
  // Draw counts at the seed-word and generation boundaries (n = 312,
  // m = 156): the first twist needs seed word x[156], the second
  // generation starts at 312.
  const int kCounts[] = {0, 1, 155, 156, 157, 311, 312, 313, 623, 624, 625,
                         1000};
  for (const std::uint64_t seed : kOracleSeeds) {
    for (const int count : kCounts) {
      std::mt19937_64 oracle(seed);
      Rng rng(seed);
      for (int i = 0; i < count; ++i) {
        ASSERT_EQ(rng.engine()(), oracle()) << "seed " << seed << " draw " << i;
      }
      EXPECT_EQ(rng.save_state(), standard_state(oracle))
          << "seed " << seed << " after " << count << " draws";
      EXPECT_EQ(rng.engine()(), oracle());
    }
  }
}

TEST(Rng, RestoresStandardEngineState) {
  for (const std::uint64_t seed : kOracleSeeds) {
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < 200; ++i) (void)oracle();
    Rng rng(seed + 1);
    rng.restore_state(standard_state(oracle));
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(rng.engine()(), oracle()) << "seed " << seed << " draw " << i;
    }
    EXPECT_EQ(rng.save_state(), standard_state(oracle));
  }
}

TEST(Rng, CopyMidSeedingStaysEqual) {
  // A copy of an engine whose seed words and first twist are only partly
  // computed must continue exactly as the original.
  for (const int draws : {1, 10, 155, 200}) {
    Rng original(77);
    for (int i = 0; i < draws; ++i) (void)original.engine()();
    Rng copy = original;
    Rng assigned(3);
    assigned = original;
    for (int i = 0; i < 700; ++i) {
      const std::uint64_t expected = original.engine()();
      ASSERT_EQ(copy.engine()(), expected) << "after " << draws << " draws";
      ASSERT_EQ(assigned.engine()(), expected) << "after " << draws;
    }
    EXPECT_EQ(copy.save_state(), original.save_state());
  }
}

TEST(Rng, DistributionsMatchStandardEngine) {
  std::mt19937_64 oracle(2024);
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    std::uniform_int_distribution<std::uint64_t> ints(3, 1000);
    std::uniform_real_distribution<double> units(0.0, 1.0);
    EXPECT_EQ(rng.uniform(3, 1000), ints(oracle));
    EXPECT_EQ(rng.unit(), units(oracle));
  }
}

}  // namespace
}  // namespace caya

// interference_test.cpp — the (≁)-interference existence index against the
// pairwise brute-force referee (tests/referee.hpp): the I1/I2 partition,
// the π-true partner lists, any_partner under seeded predicates, and the
// max_bucket valve against the referee restricted to the kept buckets. The
// family sweep runs on the seeded property harness
// (tests/property_test_util.hpp) so a failing case prints its
// FTBFS_PROPERTY_SEED reproduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/interference.hpp"
#include "src/util/rng.hpp"
#include "tests/property_test_util.hpp"
#include "tests/referee.hpp"

namespace ftb {
namespace {

struct Fixture {
  Graph g;
  Vertex source;
  EdgeWeights w;
  BfsTree tree;
  ReplacementPathEngine engine;

  Fixture(Graph graph, Vertex src)
      : g(std::move(graph)),
        source(src),
        w(EdgeWeights::uniform_random(g, 51)),
        tree(g, w, source),
        engine(tree) {}
};

/// The brute force is O(np² · |D|); larger instances are skipped.
constexpr std::size_t kMaxRefereePairs = 260;

/// Checks every query of `ifx` against `ref` on one instance: I1/I2,
/// pi_partners, and any_partner under several seeded predicates. Returns
/// the number of pairs with a (≁)-partner.
std::int64_t expect_matches_referee(const InterferenceIndex& ifx,
                                    const test::InterferenceReferee& ref,
                                    std::int32_t np, const std::string& name) {
  std::vector<std::vector<std::int32_t>> partners(
      static_cast<std::size_t>(np));
  std::vector<std::int32_t> i1, i2;
  for (std::int32_t p = 0; p < np; ++p) {
    std::vector<std::int32_t> pi;
    for (std::int32_t q = 0; q < np; ++q) {
      if (q == p || !ref.interferes(p, q)) continue;
      partners[static_cast<std::size_t>(p)].push_back(q);
      if (ref.pi_intersects(p, q)) pi.push_back(q);
    }
    (partners[static_cast<std::size_t>(p)].empty() ? i2 : i1).push_back(p);
    const auto span = ifx.pi_partners(p);
    std::vector<std::int32_t> got(span.begin(), span.end());
    std::sort(got.begin(), got.end());
    got.erase(std::unique(got.begin(), got.end()), got.end());
    EXPECT_EQ(got, pi) << name << " pi_partners(" << p << ")";
  }
  EXPECT_EQ(ifx.i1(), i1) << name;
  EXPECT_EQ(ifx.i2(), i2) << name;

  // any_partner against membership masks of several densities.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    Rng rng(seed);
    const std::uint64_t percent = 5 + 30 * (seed - 1);
    std::vector<std::uint8_t> in_s(static_cast<std::size_t>(np));
    for (auto& bit : in_s) bit = rng.next_below(100) < percent ? 1 : 0;
    for (std::int32_t p = 0; p < np; ++p) {
      bool expected = false;
      for (const std::int32_t q : partners[static_cast<std::size_t>(p)]) {
        expected = expected || in_s[static_cast<std::size_t>(q)] != 0;
      }
      const bool got = ifx.any_partner(p, [&](std::int32_t q) {
        EXPECT_NE(q, p) << name;
        return in_s[static_cast<std::size_t>(q)] != 0;
      });
      EXPECT_EQ(got, expected)
          << name << " any_partner(" << p << ") seed " << seed;
    }
  }
  return static_cast<std::int64_t>(i1.size());
}

TEST(Interference, MatchesPairwiseReferee) {
  std::int64_t with_partner = 0, pi_entries = 0;
  for (const auto& pc : test::property_cases(26, 2)) {
    FTB_PROPERTY_TRACE(pc, "interference_test");
    Fixture fx(pc.graph, pc.source);
    const std::int32_t np =
        static_cast<std::int32_t>(fx.engine.uncovered_pairs().size());
    if (static_cast<std::size_t>(np) > kMaxRefereePairs) continue;
    const InterferenceIndex ifx(fx.engine);
    EXPECT_EQ(ifx.stats().truncated_buckets, 0) << pc.name();
    with_partner += expect_matches_referee(
        ifx, test::InterferenceReferee(fx.engine), np, pc.name());
    pi_entries += ifx.stats().pi_entries;
  }
  // The sweep must exercise both relations, or it proves nothing.
  EXPECT_GT(with_partner, 0);
  EXPECT_GT(pi_entries, 0);
}

TEST(Interference, TruncatedBucketsMatchRestrictedReferee) {
  // max_bucket keeps each vertex's smallest pair ids; a pair outside a
  // bucket's kept prefix sees no partner through that bucket.
  std::int64_t truncated = 0;
  for (const std::int32_t cap : {1, 2, 3}) {
    for (const auto& pc : test::property_cases(26, 2)) {
      FTB_PROPERTY_TRACE(pc, "interference_test");
      Fixture fx(pc.graph, pc.source);
      const std::int32_t np =
          static_cast<std::int32_t>(fx.engine.uncovered_pairs().size());
      if (static_cast<std::size_t>(np) > kMaxRefereePairs) continue;
      InterferenceIndex::Config cfg;
      cfg.max_bucket = cap;
      const InterferenceIndex ifx(fx.engine, cfg);
      truncated += ifx.stats().truncated_buckets;
      expect_matches_referee(ifx, test::InterferenceReferee(fx.engine, cap),
                             np,
                             pc.name() + " max_bucket=" + std::to_string(cap));
    }
  }
  EXPECT_GT(truncated, 0);
}

TEST(Interference, NoInterferenceOnSparseTrees) {
  // A tree has no uncovered pairs at all, hence an empty index.
  Fixture fx(gen::binary_tree(31), 0);
  const InterferenceIndex ifx(fx.engine);
  EXPECT_TRUE(fx.engine.uncovered_pairs().empty());
  EXPECT_TRUE(ifx.i1().empty());
  EXPECT_TRUE(ifx.i2().empty());
  EXPECT_EQ(ifx.stats().index_vertices, 0);
}

TEST(Interference, StatsPopulated) {
  Fixture fx(gen::gnm(40, 160, 91), 0);
  const InterferenceIndex ifx(fx.engine);
  ASSERT_FALSE(fx.engine.uncovered_pairs().empty());
  EXPECT_GT(ifx.stats().index_vertices, 0);
  EXPECT_FALSE(ifx.i1().empty());
  EXPECT_EQ(ifx.stats().truncated_buckets, 0);
}

}  // namespace
}  // namespace ftb

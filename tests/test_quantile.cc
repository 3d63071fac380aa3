/**
 * @file
 * Tests for the exact nearest-rank quantiles (src/util/quantile): the
 * rank convention shared with the obs histograms, answers on known
 * data, the min/max ends, and merge.
 */

#include <gtest/gtest.h>

#include "util/quantile.hh"

namespace mica::util
{
namespace
{

TEST(QuantileRank, NearestRankConvention)
{
    EXPECT_EQ(quantileRank(0.0, 10), 0u);
    EXPECT_EQ(quantileRank(1.0, 10), 9u);
    EXPECT_EQ(quantileRank(0.5, 10), 4u);   // ceil(5) - 1
    EXPECT_EQ(quantileRank(0.5, 11), 5u);   // ceil(5.5) - 1
    EXPECT_EQ(quantileRank(0.91, 10), 9u);  // ceil(9.1) - 1
    EXPECT_EQ(quantileRank(0.3, 1), 0u);
    EXPECT_EQ(quantileRank(0.5, 0), 0u);
}

TEST(ExactQuantiles, NearestRankOnKnownData)
{
    ExactQuantiles e;
    for (int i = 10; i >= 1; --i)
        e.add(static_cast<double>(i));   // 1..10, added descending
    EXPECT_EQ(e.count(), 10u);
    EXPECT_EQ(e.quantile(0.0), 1.0);
    EXPECT_EQ(e.quantile(0.5), 5.0);
    EXPECT_EQ(e.quantile(0.9), 9.0);
    EXPECT_EQ(e.quantile(1.0), 10.0);
}

TEST(ExactQuantiles, EmptyIsZeroAndAddAfterQueryStaysExact)
{
    ExactQuantiles e;
    EXPECT_EQ(e.count(), 0u);
    EXPECT_EQ(e.quantile(0.5), 0.0);
    e.add(3.0);
    e.add(1.0);
    EXPECT_EQ(e.quantile(0.0), 1.0);   // sorts on demand ...
    e.add(0.5);
    e.add(2.0);                        // ... and again after more adds
    EXPECT_EQ(e.quantile(0.0), 0.5);
    EXPECT_EQ(e.quantile(0.5), 1.0);
    EXPECT_EQ(e.quantile(1.0), 3.0);
}

TEST(ExactQuantiles, MergeEqualsOneSampleOfEveryValue)
{
    // Per-thread samples folded in any order answer like one sample.
    ExactQuantiles a, b, all;
    for (int i = 0; i < 300; ++i) {
        const double v = static_cast<double>((i * 37) % 101);
        (i % 3 == 0 ? a : b).add(v);
        all.add(v);
    }
    ExactQuantiles ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    ba.merge(ExactQuantiles{});
    EXPECT_EQ(ab.count(), 300u);
    EXPECT_EQ(ba.count(), 300u);
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_EQ(ab.quantile(q), all.quantile(q)) << "q=" << q;
        EXPECT_EQ(ba.quantile(q), all.quantile(q)) << "q=" << q;
    }
}

} // namespace
} // namespace mica::util

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "leakage/moment_bank.hpp"
#include "leakage/moments.hpp"
#include "leakage/snr.hpp"
#include "leakage/ttest.hpp"
#include "support/campaign_error.hpp"
#include "support/rng.hpp"

namespace glitchmask::leakage {
namespace {

/// Direct (two-pass) central moment for cross-checking the streaming code.
double direct_moment(const std::vector<double>& xs, int p) {
    double mean = 0.0;
    for (const double x : xs) mean += x;
    mean /= static_cast<double>(xs.size());
    double sum = 0.0;
    for (const double x : xs) sum += std::pow(x - mean, p);
    return sum / static_cast<double>(xs.size());
}

std::vector<double> random_data(std::uint64_t seed, std::size_t n,
                                double mean = 0.0, double sigma = 1.0) {
    Xoshiro256 rng(seed);
    std::vector<double> xs(n);
    for (double& x : xs) x = rng.gaussian(mean, sigma);
    return xs;
}

TEST(Moments, MatchDirectComputationOrders2To6) {
    const std::vector<double> xs = random_data(1, 5000, 2.0, 3.0);
    MomentAccumulator acc(6);
    for (const double x : xs) acc.add(x);
    EXPECT_EQ(acc.count(), 5000.0);
    EXPECT_NEAR(acc.mean(), direct_moment(xs, 1) + acc.mean(), 1e-9);
    for (int p = 2; p <= 6; ++p)
        EXPECT_NEAR(acc.central_moment(p), direct_moment(xs, p),
                    1e-7 * std::max(1.0, std::fabs(direct_moment(xs, p))))
            << "order " << p;
}

TEST(Moments, SinglePointHasZeroCentralMoments) {
    MomentAccumulator acc(4);
    acc.add(5.0);
    EXPECT_EQ(acc.mean(), 5.0);
    EXPECT_EQ(acc.central_moment(2), 0.0);
    EXPECT_EQ(acc.central_moment(4), 0.0);
}

TEST(Moments, MergeEqualsSequential) {
    const std::vector<double> xs = random_data(2, 3000, -1.0, 2.0);
    MomentAccumulator whole(6);
    MomentAccumulator left(6);
    MomentAccumulator right(6);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        whole.add(xs[i]);
        (i < xs.size() / 3 ? left : right).add(xs[i]);
    }
    left.merge(right);
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    for (int p = 2; p <= 6; ++p)
        EXPECT_NEAR(left.central_moment(p), whole.central_moment(p),
                    1e-6 * std::max(1.0, std::fabs(whole.central_moment(p))))
            << "order " << p;
}

TEST(Moments, MergeAssociativityUnevenShards) {
    // The parallel campaign engine merges per-block accumulators whose
    // sizes are rarely equal (the tail block is short).  Merge must be
    // associative up to rounding on grossly uneven shard sizes.
    const std::vector<double> xs = random_data(17, 7 + 64 + 13, 0.5, 1.5);
    const std::array<std::size_t, 3> sizes{7, 64, 13};
    std::array<MomentAccumulator, 3> shard{
        MomentAccumulator(6), MomentAccumulator(6), MomentAccumulator(6)};
    std::size_t index = 0;
    for (std::size_t s = 0; s < sizes.size(); ++s)
        for (std::size_t i = 0; i < sizes[s]; ++i) shard[s].add(xs[index++]);

    // (a + b) + c
    MomentAccumulator left_first = shard[0];
    left_first.merge(shard[1]);
    left_first.merge(shard[2]);
    // a + (b + c)
    MomentAccumulator right_first = shard[1];
    right_first.merge(shard[2]);
    MomentAccumulator a = shard[0];
    a.merge(right_first);

    MomentAccumulator whole(6);
    for (const double x : xs) whole.add(x);

    EXPECT_EQ(left_first.count(), whole.count());
    EXPECT_EQ(a.count(), whole.count());
    for (int p = 2; p <= 6; ++p) {
        const double scale = std::max(1.0, std::fabs(whole.central_moment(p)));
        EXPECT_NEAR(left_first.central_moment(p), a.central_moment(p),
                    1e-9 * scale)
            << "order " << p;
        EXPECT_NEAR(left_first.central_moment(p), whole.central_moment(p),
                    1e-6 * scale)
            << "order " << p;
    }
}

TEST(Moments, MergeWithEmptySides) {
    MomentAccumulator a(4);
    MomentAccumulator b(4);
    a.add(1.0);
    a.add(2.0);
    MomentAccumulator a_copy = a;
    a.merge(b);  // empty rhs: unchanged
    EXPECT_EQ(a.count(), 2.0);
    EXPECT_EQ(a.mean(), a_copy.mean());
    b.merge(a);  // empty lhs: adopt
    EXPECT_EQ(b.count(), 2.0);
    EXPECT_EQ(b.mean(), 1.5);
}

TEST(Moments, ResetClears) {
    MomentAccumulator acc(4);
    acc.add(1.0);
    acc.add(3.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0.0);
    EXPECT_EQ(acc.mean(), 0.0);
}

TEST(Moments, RejectsBadOrders) {
    EXPECT_THROW(MomentAccumulator(1), std::invalid_argument);
    MomentAccumulator acc(4);
    acc.add(1.0);
    EXPECT_THROW((void)acc.central_moment(1), std::out_of_range);
    EXPECT_THROW((void)acc.central_moment(5), std::out_of_range);
}

TEST(Welch, KnownValue) {
    // Two-sample t with equal n, means 1 vs 0, variances 1:
    // t = 1 / sqrt(2/n).
    const double n = 50.0;
    EXPECT_NEAR(welch_t(1.0, 1.0, n, 0.0, 1.0, n), 1.0 / std::sqrt(2.0 / n), 1e-12);
    EXPECT_EQ(welch_t(1.0, 1.0, 1.0, 0.0, 1.0, 50.0), 0.0);  // degenerate
}

TEST(TTest, DetectsFirstOrderDifference) {
    UnivariateTTest test(3);
    Xoshiro256 rng(3);
    for (int i = 0; i < 20000; ++i) {
        test.add(true, rng.gaussian(0.3, 1.0));
        test.add(false, rng.gaussian(0.0, 1.0));
    }
    EXPECT_GT(std::fabs(test.t(1)), kTvlaThreshold);
}

TEST(TTest, NullDistributionStaysUnderThreshold) {
    // Same distribution in both classes: |t| should almost surely stay
    // small at every order for a single seeded draw.
    UnivariateTTest test(3);
    Xoshiro256 rng(4);
    for (int i = 0; i < 20000; ++i) test.add(rng.bit(), rng.gaussian(0.0, 1.0));
    EXPECT_LT(std::fabs(test.t(1)), kTvlaThreshold);
    EXPECT_LT(std::fabs(test.t(2)), kTvlaThreshold);
    EXPECT_LT(std::fabs(test.t(3)), kTvlaThreshold);
}

TEST(TTest, SecondOrderOnlyDifference) {
    // Equal means, different variances: invisible at order 1, glaring at
    // order 2 -- the signature of a well-masked 2-share implementation.
    UnivariateTTest test(3);
    Xoshiro256 rng(5);
    for (int i = 0; i < 40000; ++i) {
        test.add(true, rng.gaussian(0.0, 2.0));
        test.add(false, rng.gaussian(0.0, 1.0));
    }
    EXPECT_LT(std::fabs(test.t(1)), kTvlaThreshold);
    EXPECT_GT(std::fabs(test.t(2)), kTvlaThreshold);
}

TEST(TTest, ThirdOrderSkewDifference) {
    // Mirror-skewed vs symmetric data with matched mean/variance leaks at
    // order 3.  Exponential(1) centered has skew 2.
    UnivariateTTest test(3);
    Xoshiro256 rng(6);
    for (int i = 0; i < 60000; ++i) {
        const double e = -std::log(1.0 - rng.uniform());
        test.add(true, e - 1.0);
        test.add(false, rng.gaussian(0.0, 1.0));
    }
    EXPECT_GT(std::fabs(test.t(3)), kTvlaThreshold);
}

TEST(TTest, MergeMatchesSequential) {
    UnivariateTTest all(2);
    UnivariateTTest a(2);
    UnivariateTTest b(2);
    Xoshiro256 rng(7);
    for (int i = 0; i < 5000; ++i) {
        const bool cls = rng.bit();
        const double x = rng.gaussian(cls ? 0.1 : 0.0, 1.0);
        all.add(cls, x);
        (i % 2 == 0 ? a : b).add(cls, x);
    }
    a.merge(b);
    EXPECT_NEAR(a.t(1), all.t(1), 1e-9);
    EXPECT_NEAR(a.t(2), all.t(2), 1e-9);
}

TEST(TTest, PreprocessedVarianceOrder2Identity) {
    // Var((x-mu)^2) must equal m4 - m2^2.
    MomentAccumulator acc(4);
    const std::vector<double> xs = random_data(8, 4000);
    for (const double x : xs) acc.add(x);
    EXPECT_NEAR(preprocessed_variance(acc.view(), 2),
                acc.central_moment(4) -
                    acc.central_moment(2) * acc.central_moment(2),
                1e-9);
}

TEST(Tvla, CurveFlagsOnlyLeakySample) {
    constexpr std::size_t kSamples = 8;
    constexpr std::size_t kLeaky = 3;
    MomentBank campaign(kSamples, 2);
    Xoshiro256 rng(9);
    std::vector<double> trace(kSamples);
    for (int i = 0; i < 20000; ++i) {
        const bool fixed = rng.bit();
        for (std::size_t s = 0; s < kSamples; ++s)
            trace[s] = rng.gaussian(s == kLeaky && fixed ? 0.4 : 0.0, 1.0);
        campaign.add_trace(fixed, trace);
    }
    std::size_t argmax = 0;
    EXPECT_GT(campaign.max_abs_t(1, &argmax), kTvlaThreshold);
    EXPECT_EQ(argmax, kLeaky);
    const auto exceeded = campaign.exceedances(1);
    ASSERT_EQ(exceeded.size(), 1u);
    EXPECT_EQ(exceeded.front(), kLeaky);
}

TEST(Tvla, ConsistencyRuleRejectsInconsistentPeaks) {
    // Two campaigns leak at different indexes: the paper's rule says the
    // implementation is not deemed leaky.
    auto make = [](std::size_t leaky_index, std::uint64_t seed) {
        MomentBank campaign(6, 1);
        Xoshiro256 rng(seed);
        std::vector<double> trace(6);
        for (int i = 0; i < 20000; ++i) {
            const bool fixed = rng.bit();
            for (std::size_t s = 0; s < 6; ++s)
                trace[s] = rng.gaussian(s == leaky_index && fixed ? 0.5 : 0.0, 1.0);
            campaign.add_trace(fixed, trace);
        }
        return campaign;
    };
    const MomentBank campaigns_diff[] = {make(1, 10), make(4, 11)};
    EXPECT_TRUE(consistent_exceedances(campaigns_diff, 1).empty());
    const MomentBank campaigns_same[] = {make(2, 12), make(2, 13)};
    const auto hits = consistent_exceedances(campaigns_same, 1);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits.front(), 2u);
}

TEST(Tvla, TraceCountsPerClass) {
    MomentBank campaign(2, 1);
    const std::vector<double> trace{0.0, 1.0};
    campaign.add_trace(true, trace);
    campaign.add_trace(true, trace);
    campaign.add_trace(false, trace);
    EXPECT_EQ(campaign.count(true), 2.0);
    EXPECT_EQ(campaign.count(false), 1.0);
}

TEST(Tvla, RejectsShortTraces) {
    MomentBank campaign(4, 1);
    const std::vector<double> trace{0.0, 1.0};
    EXPECT_THROW(campaign.add_trace(true, trace), std::invalid_argument);
    EXPECT_EQ(campaign.count(true), 0.0);  // rejected before any fold
}

TEST(Tvla, MergeMatchesSequential) {
    MomentBank whole(4, 2);
    MomentBank left(4, 2);
    MomentBank right(4, 2);
    Xoshiro256 rng(21);
    std::vector<double> trace(4);
    for (int i = 0; i < 4000; ++i) {
        const bool fixed = rng.bit();
        for (double& v : trace) v = rng.gaussian(fixed ? 0.1 : 0.0, 1.0);
        whole.add_trace(fixed, trace);
        (i % 2 == 0 ? left : right).add_trace(fixed, trace);
    }
    left.merge(right);
    for (int order = 1; order <= 2; ++order)
        for (std::size_t s = 0; s < 4; ++s)
            EXPECT_NEAR(left.t(s, order), whole.t(s, order), 1e-9);
}

TEST(Tvla, MergeAssociativityUnevenShards) {
    // Shards of 100, 31 and 5 traces (the parallel engine's tail blocks
    // are short): both association orders must agree to rounding, and the
    // class trace counts must add up exactly.
    const std::array<std::size_t, 3> sizes{100, 31, 5};
    std::array<MomentBank, 3> shard{MomentBank(3, 3), MomentBank(3, 3),
                                    MomentBank(3, 3)};
    MomentBank whole(3, 3);
    Xoshiro256 rng(33);
    std::vector<double> trace(3);
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        for (std::size_t i = 0; i < sizes[s]; ++i) {
            const bool fixed = rng.bit();
            for (double& v : trace) v = rng.gaussian(fixed ? 0.3 : 0.0, 1.0);
            shard[s].add_trace(fixed, trace);
            whole.add_trace(fixed, trace);
        }
    }
    MomentBank left_first = shard[0];
    left_first.merge(shard[1]);
    left_first.merge(shard[2]);
    MomentBank right_first = shard[1];
    right_first.merge(shard[2]);
    MomentBank a = shard[0];
    a.merge(right_first);

    EXPECT_EQ(left_first.count(true) + left_first.count(false),
              static_cast<double>(sizes[0] + sizes[1] + sizes[2]));
    EXPECT_EQ(left_first.count(true), whole.count(true));
    for (int order = 1; order <= 3; ++order)
        for (std::size_t s = 0; s < 3; ++s) {
            EXPECT_NEAR(left_first.t(s, order), a.t(s, order), 1e-9);
            EXPECT_NEAR(left_first.t(s, order), whole.t(s, order), 1e-7);
        }
}

TEST(Snr, KnownSeparation) {
    // Two classes at means 0 and 1 with unit noise: SNR ~ 0.25 (class
    // means +-0.5 around the grand mean -> signal variance 0.25).
    SnrAccumulator snr(2);
    Xoshiro256 rng(14);
    for (int i = 0; i < 40000; ++i) {
        const std::size_t cls = rng.bit() ? 1 : 0;
        snr.add(cls, rng.gaussian(static_cast<double>(cls), 1.0));
    }
    EXPECT_NEAR(snr.snr(), 0.25, 0.02);
}

TEST(Snr, ZeroWhenClassesIdentical) {
    SnrAccumulator snr(4);
    Xoshiro256 rng(15);
    for (int i = 0; i < 20000; ++i)
        snr.add(rng.below(4), rng.gaussian(0.0, 1.0));
    EXPECT_LT(snr.snr(), 0.01);
}

TEST(Snr, RequiresTwoClasses) {
    EXPECT_THROW(SnrAccumulator(1), std::invalid_argument);
}

// ----- degenerate statistics: defined sentinel, never NaN/Inf -----------

TEST(Welch, DegenerateInputsReturnSentinelNotNan) {
    // Either class with n < 2.
    EXPECT_EQ(welch_t(1.0, 1.0, 1.0, 0.0, 1.0, 50.0), 0.0);
    EXPECT_EQ(welch_t(1.0, 1.0, 50.0, 0.0, 1.0, 0.0), 0.0);
    // Both variances zero: the denominator would be 0/0 or x/0.
    EXPECT_EQ(welch_t(1.0, 0.0, 50.0, 0.0, 0.0, 50.0), 0.0);
    EXPECT_EQ(welch_t(1.0, 0.0, 50.0, 1.0, 0.0, 50.0), 0.0);
    // Negative (numerically-poisoned) and non-finite inputs.
    EXPECT_EQ(welch_t(1.0, -1e-18, 50.0, 0.0, 1.0, 50.0), 0.0);
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(welch_t(nan, 1.0, 50.0, 0.0, 1.0, 50.0), 0.0);
    EXPECT_EQ(welch_t(1.0, inf, 50.0, 0.0, 1.0, 50.0), 0.0);
    EXPECT_TRUE(std::isfinite(welch_t(1.0, 0.0, 50.0, 0.0, 1.0, 50.0)));
}

TEST(TTest, DegenerateClassesGiveFiniteZero) {
    UnivariateTTest test(3);
    // Completely empty.
    for (int d = 1; d <= 3; ++d) EXPECT_EQ(test.t(d), 0.0);
    // One sample per class (n < 2).
    test.add(true, 1.0);
    test.add(false, 0.0);
    for (int d = 1; d <= 3; ++d) {
        EXPECT_TRUE(std::isfinite(test.t(d))) << "order " << d;
        EXPECT_EQ(test.t(d), 0.0) << "order " << d;
    }
}

TEST(TTest, ConstantTracesGiveFiniteZero) {
    // Zero variance in both classes: every order's preprocessed variance
    // is zero, which must yield the sentinel rather than Inf.
    UnivariateTTest test(3);
    for (int i = 0; i < 100; ++i) {
        test.add(true, 2.5);
        test.add(false, 2.5);
    }
    for (int d = 1; d <= 3; ++d) {
        EXPECT_TRUE(std::isfinite(test.t(d))) << "order " << d;
        EXPECT_EQ(test.t(d), 0.0) << "order " << d;
    }
}

TEST(Tvla, DegenerateCampaignCurvesAreFinite) {
    MomentBank campaign(3, 3);
    campaign.add_trace(true, std::vector<double>{1.0, 1.0, 1.0});
    for (int order = 1; order <= 3; ++order) {
        for (const double t : campaign.t_curve(order))
            EXPECT_TRUE(std::isfinite(t));
        EXPECT_EQ(campaign.max_abs_t(order), 0.0);
        EXPECT_TRUE(campaign.exceedances(order).empty());
    }
}

TEST(Snr, DegenerateInputsGiveFiniteZero) {
    SnrAccumulator empty(2);
    EXPECT_EQ(empty.snr(), 0.0);

    // Constant samples: zero noise variance must not divide to Inf.
    SnrAccumulator constant(2);
    for (int i = 0; i < 50; ++i) {
        constant.add(0, 1.0);
        constant.add(1, 1.0);
    }
    EXPECT_TRUE(std::isfinite(constant.snr()));
    EXPECT_EQ(constant.snr(), 0.0);

    // Only one class populated: no between-class signal to speak of.
    SnrAccumulator one_class(2);
    for (int i = 0; i < 50; ++i) one_class.add(0, static_cast<double>(i % 3));
    EXPECT_TRUE(std::isfinite(one_class.snr()));
}

// ----- snapshot round-trips: exact bit-identity -------------------------

TEST(Moments, EncodeDecodeRoundTripIsExact) {
    MomentAccumulator acc(6);
    Xoshiro256 rng(40);
    for (int i = 0; i < 1234; ++i) acc.add(rng.gaussian(0.7, 1.3));

    SnapshotWriter out;
    acc.encode(out);
    const std::vector<std::uint8_t> bytes = std::move(out).finish();
    SnapshotReader in(bytes);
    const MomentAccumulator back = MomentAccumulator::decode(in);

    EXPECT_EQ(back.count(), acc.count());
    EXPECT_EQ(back.mean(), acc.mean());
    EXPECT_EQ(back.max_order(), acc.max_order());
    EXPECT_EQ(back.raw_sums(), acc.raw_sums());
}

TEST(Moments, MergeIntoEmptyAccumulator) {
    MomentAccumulator filled(6);
    Xoshiro256 rng(41);
    for (int i = 0; i < 500; ++i) filled.add(rng.gaussian(0.0, 1.0));

    MomentAccumulator empty(6);
    empty.merge(filled);
    EXPECT_EQ(empty.count(), filled.count());
    EXPECT_EQ(empty.mean(), filled.mean());
    EXPECT_EQ(empty.raw_sums(), filled.raw_sums());

    // And the other direction: merging an empty rhs is the identity.
    MomentAccumulator copy = filled;
    copy.merge(MomentAccumulator(6));
    EXPECT_EQ(copy.count(), filled.count());
    EXPECT_EQ(copy.mean(), filled.mean());
    EXPECT_EQ(copy.raw_sums(), filled.raw_sums());
}

TEST(Moments, MergeAfterDeserializeEqualsInMemoryMerge) {
    // The resume path deserializes one side of every merge; the result
    // must be bit-for-bit what the uninterrupted in-memory merge gives.
    MomentAccumulator a(6);
    MomentAccumulator b(6);
    Xoshiro256 rng(42);
    for (int i = 0; i < 800; ++i) a.add(rng.gaussian(1.0, 2.0));
    for (int i = 0; i < 300; ++i) b.add(rng.gaussian(-1.0, 0.5));

    MomentAccumulator in_memory = a;
    in_memory.merge(b);

    SnapshotWriter out;
    a.encode(out);
    const std::vector<std::uint8_t> bytes = std::move(out).finish();
    SnapshotReader in(bytes);
    MomentAccumulator reloaded = MomentAccumulator::decode(in);
    reloaded.merge(b);

    EXPECT_EQ(reloaded.count(), in_memory.count());
    EXPECT_EQ(reloaded.mean(), in_memory.mean());
    EXPECT_EQ(reloaded.raw_sums(), in_memory.raw_sums());
}

TEST(Tvla, EncodeDecodeRoundTripPreservesTCurves) {
    MomentBank campaign(5, 3);
    Xoshiro256 rng(43);
    std::vector<double> trace(5);
    for (int i = 0; i < 2000; ++i) {
        const bool fixed = rng.bit();
        for (double& v : trace) v = rng.gaussian(fixed ? 0.2 : 0.0, 1.0);
        campaign.add_trace(fixed, trace);
    }

    SnapshotWriter out;
    campaign.encode(out);
    const std::vector<std::uint8_t> bytes = std::move(out).finish();
    SnapshotReader in(bytes);
    const MomentBank back = MomentBank::decode(in);

    ASSERT_EQ(back.points(), campaign.points());
    EXPECT_EQ(back.max_test_order(), campaign.max_test_order());
    EXPECT_EQ(back.count(true), campaign.count(true));
    EXPECT_EQ(back.count(false), campaign.count(false));
    for (int order = 1; order <= 3; ++order)
        EXPECT_EQ(back.t_curve(order), campaign.t_curve(order))
            << "order " << order;
    EXPECT_TRUE(in.exhausted());

    // Rejects: an implausible point count, and a snapshot cut short
    // inside its first point.
    const auto expect_corrupt = [](SnapshotWriter&& writer) {
        const std::vector<std::uint8_t> sealed = std::move(writer).finish();
        SnapshotReader reader(sealed);
        EXPECT_THROW((void)MomentBank::decode(reader), CampaignError);
    };
    SnapshotWriter implausible;
    implausible.u64((std::uint64_t{1} << 32) + 1);
    expect_corrupt(std::move(implausible));
    SnapshotWriter truncated;
    truncated.u64(5);
    truncated.u32(3);
    expect_corrupt(std::move(truncated));
}

}  // namespace
}  // namespace glitchmask::leakage

// Welch's t-test and its higher-order univariate extensions.
//
// Implements the TVLA statistics of Goodwill et al. (2011) and the
// moment-based higher-order formulation of Schneider & Moradi (CHES
// 2015): at order d the traces are conceptually preprocessed to
// ((x - mu)/sigma)^d (standardized for d >= 3, centered for d = 2) and a
// Welch t-test is applied; both the preprocessed means and variances are
// computed directly from the streaming central moments, so no second pass
// over the traces is needed.
#pragma once

#include "leakage/moments.hpp"

namespace glitchmask::leakage {

/// The commonly applied TVLA decision threshold (paper: red lines at 4.5).
inline constexpr double kTvlaThreshold = 4.5;

/// Welch's t-statistic from summary statistics.  Degenerate inputs --
/// either class with n < 2, zero/negative/non-finite variances, or
/// non-finite means -- return the defined sentinel 0.0 instead of quiet
/// NaN/Inf, so downstream max/threshold logic never sees a poisoned
/// value.
[[nodiscard]] double welch_t(double mean_a, double var_a, double n_a,
                             double mean_b, double var_b, double n_b);

/// Mean of the order-d preprocessed trace, from central moments.
[[nodiscard]] double preprocessed_mean(const ClassMoments& moments, int order);

/// Variance of the order-d preprocessed trace, from central moments
/// (requires the view to hold moments up to 2*order).
[[nodiscard]] double preprocessed_variance(const ClassMoments& moments,
                                           int order);

/// Order-d fixed-vs-random t: Welch's t over both classes' preprocessed
/// means and variances; the sentinel 0.0 while either class has n <= 1.
/// The one copy of the formula behind UnivariateTTest::t and
/// MomentBank::t, which check `order` against the moments they hold.
[[nodiscard]] double order_t(const ClassMoments& fixed,
                             const ClassMoments& random, int order);

/// One sample point of a fixed-vs-random test, orders 1..max_order.
class UnivariateTTest {
public:
    /// `max_test_order` in 1..3 (central moments to 2*order are kept).
    explicit UnivariateTTest(int max_test_order = 3);

    void add(bool fixed_class, double x);

    /// t-statistic at order `d` (1 <= d <= max_test_order); the sentinel
    /// 0.0 while a class is still empty or degenerate (n < 2, zero
    /// variance) -- never NaN/Inf.
    [[nodiscard]] double t(int order) const;

    [[nodiscard]] double count(bool fixed_class) const;
    [[nodiscard]] const MomentAccumulator& moments(bool fixed_class) const {
        return fixed_class ? fixed_ : random_;
    }

    void merge(const UnivariateTTest& other);
    void reset();

    /// Exact binary serialization of both class accumulators (see
    /// MomentAccumulator::encode).
    void encode(SnapshotWriter& out) const;
    [[nodiscard]] static UnivariateTTest decode(SnapshotReader& in);

    [[nodiscard]] int max_test_order() const noexcept { return max_test_order_; }

private:
    int max_test_order_;
    MomentAccumulator fixed_;
    MomentAccumulator random_;
};

}  // namespace glitchmask::leakage

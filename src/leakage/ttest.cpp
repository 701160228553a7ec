#include "leakage/ttest.hpp"

#include <cmath>
#include <stdexcept>

namespace glitchmask::leakage {

double welch_t(double mean_a, double var_a, double n_a, double mean_b,
               double var_b, double n_b) {
    if (n_a <= 1.0 || n_b <= 1.0) return 0.0;
    if (!std::isfinite(mean_a) || !std::isfinite(mean_b) ||
        !std::isfinite(var_a) || !std::isfinite(var_b))
        return 0.0;
    // A negative variance is numerical poison from a cancelled moment
    // sum, not a statistic -- reject it even when the other class would
    // carry the denominator.
    if (var_a < 0.0 || var_b < 0.0) return 0.0;
    const double denom = std::sqrt(var_a / n_a + var_b / n_b);
    if (!(denom > 0.0)) return 0.0;  // zero/negative variance, or NaN
    const double t = (mean_a - mean_b) / denom;
    return std::isfinite(t) ? t : 0.0;
}

double preprocessed_mean(const ClassMoments& moments, int order) {
    if (order < 1) throw std::invalid_argument("preprocessed_mean: order < 1");
    if (order == 1) return moments.mean;
    if (order == 2) return moments.central_moment(2);
    const double m2 = moments.central_moment(2);
    if (!(m2 > 0.0)) return 0.0;
    return moments.central_moment(order) / std::pow(m2, order / 2.0);
}

double preprocessed_variance(const ClassMoments& moments, int order) {
    if (order < 1) throw std::invalid_argument("preprocessed_variance: order < 1");
    if (order == 1) return moments.central_moment(2);
    const double md = moments.central_moment(order);
    const double m2d = moments.central_moment(2 * order);
    if (order == 2) return m2d - md * md;
    const double m2 = moments.central_moment(2);
    if (!(m2 > 0.0)) return 0.0;
    const double var = (m2d - md * md) / std::pow(m2, static_cast<double>(order));
    return std::isfinite(var) ? var : 0.0;
}

double order_t(const ClassMoments& fixed, const ClassMoments& random,
               int order) {
    if (fixed.n <= 1.0 || random.n <= 1.0) return 0.0;
    return welch_t(preprocessed_mean(fixed, order),
                   preprocessed_variance(fixed, order), fixed.n,
                   preprocessed_mean(random, order),
                   preprocessed_variance(random, order), random.n);
}

UnivariateTTest::UnivariateTTest(int max_test_order)
    : max_test_order_(max_test_order),
      fixed_(2 * max_test_order < 2 ? 2 : 2 * max_test_order),
      random_(2 * max_test_order < 2 ? 2 : 2 * max_test_order) {
    if (max_test_order < 1 || max_test_order > 3)
        throw std::invalid_argument("UnivariateTTest: order must be 1..3");
}

void UnivariateTTest::add(bool fixed_class, double x) {
    (fixed_class ? fixed_ : random_).add(x);
}

double UnivariateTTest::t(int order) const {
    if (order < 1 || order > max_test_order_)
        throw std::out_of_range("UnivariateTTest::t: order out of range");
    return order_t(fixed_.view(), random_.view(), order);
}

double UnivariateTTest::count(bool fixed_class) const {
    return fixed_class ? fixed_.count() : random_.count();
}

void UnivariateTTest::merge(const UnivariateTTest& other) {
    fixed_.merge(other.fixed_);
    random_.merge(other.random_);
}

void UnivariateTTest::reset() {
    fixed_.reset();
    random_.reset();
}

void UnivariateTTest::encode(SnapshotWriter& out) const {
    out.u32(static_cast<std::uint32_t>(max_test_order_));
    fixed_.encode(out);
    random_.encode(out);
}

UnivariateTTest UnivariateTTest::decode(SnapshotReader& in) {
    const std::uint32_t order = in.u32();
    if (order < 1 || order > 3)
        throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                            "UnivariateTTest: implausible order in snapshot");
    UnivariateTTest test(static_cast<int>(order));
    test.fixed_ = MomentAccumulator::decode(in);
    test.random_ = MomentAccumulator::decode(in);
    if (test.fixed_.max_order() < 2 * test.max_test_order_ ||
        test.random_.max_order() < 2 * test.max_test_order_)
        throw CampaignError(
            CampaignErrorKind::CorruptSnapshot,
            "UnivariateTTest: accumulator order below 2x test order");
    return test;
}

}  // namespace glitchmask::leakage

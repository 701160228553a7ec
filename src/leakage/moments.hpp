// One-pass streaming central moments of arbitrary order.
//
// Higher-order univariate TVLA (Schneider & Moradi, CHES 2015) needs
// central moments up to twice the assessment order -- order-3 t-tests use
// m2..m6 -- accumulated over millions of traces without storing them.
// This accumulator implements Pebay's incremental update formulas for
// arbitrary-order central sums, plus the pairwise merge used to combine
// accumulators from parallel workers.  Numerically this is the standard
// approach used by production leakage-assessment tooling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/snapshot.hpp"

namespace glitchmask::leakage {

/// Read-only view of one class's streaming moments: the count, the mean
/// and the central power sums sum((x - mean)^p), order p at
/// `sums[p * stride]`.  A MomentAccumulator (stride 1) and one point of a
/// MomentBank (stride = points) present the same view, so the order-d
/// t-test formulas (leakage/ttest.hpp) exist once for both.
struct ClassMoments {
    double n = 0.0;
    double mean = 0.0;
    const double* sums = nullptr;
    std::size_t stride = 1;

    /// m_p = E[(x - mean)^p]; 0.0 for an empty class.
    [[nodiscard]] double central_moment(int p) const noexcept {
        if (n == 0.0) return 0.0;
        return sums[static_cast<std::size_t>(p) * stride] / n;
    }
};

class MomentAccumulator {
public:
    /// `max_order` >= 2: highest central moment that will be queried.
    explicit MomentAccumulator(int max_order = 6);

    void add(double x);

    /// Combines another accumulator (same max_order) into this one.
    void merge(const MomentAccumulator& other);

    void reset();

    [[nodiscard]] double count() const noexcept { return n_; }
    [[nodiscard]] double mean() const noexcept { return mean_; }

    /// p-th central moment  m_p = E[(x - mean)^p],  2 <= p <= max_order.
    [[nodiscard]] double central_moment(int p) const;

    [[nodiscard]] ClassMoments view() const noexcept {
        return {n_, mean_, sums_.data(), 1};
    }

    /// Population variance (= central_moment(2)).
    [[nodiscard]] double variance() const { return central_moment(2); }

    [[nodiscard]] int max_order() const noexcept {
        return static_cast<int>(sums_.size()) - 1;
    }

    /// Raw central power sums (index p >= 2; 0 and 1 unused).  Exposed so
    /// snapshot round-trips can be asserted with exact `==` -- the resume
    /// contract is bit-identity, not closeness.
    [[nodiscard]] const std::vector<double>& raw_sums() const noexcept {
        return sums_;
    }

    /// Exact binary serialization (count, mean and raw sums as IEEE-754
    /// bit patterns): decode(encode(acc)) == acc on every raw field.
    void encode(SnapshotWriter& out) const;
    [[nodiscard]] static MomentAccumulator decode(SnapshotReader& in);

private:
    double n_ = 0.0;
    double mean_ = 0.0;
    // sums_[p] = sum (x - mean)^p for p >= 2; indices 0 and 1 unused.
    std::vector<double> sums_;
};

}  // namespace glitchmask::leakage

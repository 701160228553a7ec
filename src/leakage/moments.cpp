#include "leakage/moments.hpp"

#include <cmath>
#include <stdexcept>

#include "leakage/pebay.hpp"

namespace glitchmask::leakage {

MomentAccumulator::MomentAccumulator(int max_order) {
    if (max_order < 2) throw std::invalid_argument("MomentAccumulator: order < 2");
    sums_.assign(static_cast<std::size_t>(max_order) + 1, 0.0);
}

void MomentAccumulator::add(double x) {
    const double n1 = n_;
    n_ += 1.0;
    const double delta = x - mean_;
    const double delta_n = delta / n_;
    mean_ += delta_n;
    if (n1 == 0.0) return;  // all central sums stay zero for the first point

    const int max_p = max_order();
    // Update from the highest order down so lower-order sums retain their
    // pre-update values (Pebay 2008, single-point increment).
    for (int p = max_p; p >= 2; --p) {
        double update = sums_[p];
        for (int k = 1; k <= p - 2; ++k)
            update += binomial(p, k) * sums_[p - k] * ipow(-delta_n, k);
        const double term = n1 * delta / n_;
        update += ipow(term, p) * (1.0 - ipow(-1.0 / n1, p - 1));
        sums_[p] = update;
    }
}

void MomentAccumulator::merge(const MomentAccumulator& other) {
    if (other.max_order() != max_order())
        throw std::invalid_argument("MomentAccumulator::merge: order mismatch");
    if (other.n_ == 0.0) return;
    if (n_ == 0.0) {
        *this = other;
        return;
    }
    const double na = n_;
    const double nb = other.n_;
    const double n = na + nb;
    const double delta = other.mean_ - mean_;

    std::vector<double> merged = sums_;
    const int max_p = max_order();
    for (int p = 2; p <= max_p; ++p) {
        double value = sums_[p] + other.sums_[p];
        for (int k = 1; k <= p - 2; ++k)
            value += binomial(p, k) * (sums_[p - k] * ipow(-nb * delta / n, k) +
                                       other.sums_[p - k] * ipow(na * delta / n, k));
        value += ipow(na * nb * delta / n, p) *
                 (1.0 / ipow(nb, p - 1) - ipow(-1.0 / na, p - 1));
        merged[p] = value;
    }
    sums_ = std::move(merged);
    mean_ += delta * nb / n;
    n_ = n;
}

void MomentAccumulator::reset() {
    n_ = 0.0;
    mean_ = 0.0;
    sums_.assign(sums_.size(), 0.0);
}

void MomentAccumulator::encode(SnapshotWriter& out) const {
    out.u32(static_cast<std::uint32_t>(max_order()));
    out.f64(n_);
    out.f64(mean_);
    for (const double sum : sums_) out.f64(sum);
}

MomentAccumulator MomentAccumulator::decode(SnapshotReader& in) {
    const std::uint32_t order = in.u32();
    if (order < 2 || order > 64)
        throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                            "MomentAccumulator: implausible order in snapshot");
    MomentAccumulator acc(static_cast<int>(order));
    acc.n_ = in.f64();
    acc.mean_ = in.f64();
    for (double& sum : acc.sums_) sum = in.f64();
    return acc;
}

double MomentAccumulator::central_moment(int p) const {
    if (p < 2 || p > max_order())
        throw std::out_of_range("MomentAccumulator::central_moment");
    return view().central_moment(p);
}

}  // namespace glitchmask::leakage

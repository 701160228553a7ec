#include "power/batch_power.hpp"

#include <stdexcept>

#include "support/bits.hpp"

namespace glitchmask::power {

BatchPowerRecorder::BatchPowerRecorder(const Netlist& nl, PowerConfig config)
    : config_(config), kernels_(kernels::resolve_deposit_kernels()) {
    if (!nl.frozen())
        throw std::runtime_error("BatchPowerRecorder: netlist not frozen");
    weight_ = net_weights(nl, config);
    partner_ = coupling_partners(nl);
}

void BatchPowerRecorder::begin_trace(std::size_t bins) {
    bins_ = bins;
    trace_.assign(bins * sim::kBatchLanes, 0.0);
    lane_toggles_.fill(0);
    trace_toggles_ = 0;
    cur_bin_ = 0;
    bin_end_ = config_.bin_ps;
}

void BatchPowerRecorder::on_toggle(NetId net, sim::TimePs time,
                                   std::uint64_t values, std::uint64_t toggled) {
    const int count = popcount64(toggled);
    trace_toggles_ += static_cast<std::uint64_t>(count);
    total_toggles_ += static_cast<std::uint64_t>(count);

    // Monotonic bin cursor (commit times never decrease in a batch): when
    // the commit lands past the window only the lane counters advance.
    bool in_window = cur_bin_ < bins_;
    while (in_window && time >= bin_end_) {
        bin_end_ += config_.bin_ps;
        in_window = ++cur_bin_ < bins_;
    }
    // Density cutover for the dispatched kernels: the vector forms touch
    // all 64 lanes regardless of mask population, which only pays off on
    // dense masks (clock-edge register commits toggle most lanes at
    // once); glitch-window masks are usually a few bits, where the sparse
    // bit-walk wins.  Either form performs the same per-lane double adds,
    // so the cutover cannot change a result bit.
    constexpr int kDenseCutover = 8;
    const bool dense = count >= kDenseCutover;

    if (!in_window) {
        if (dense)
            kernels_.count(lane_toggles_.data(), toggled);
        else
            kernels::count_scalar(lane_toggles_.data(), toggled);
        return;
    }
    double* row = trace_.data() + cur_bin_ * sim::kBatchLanes;
    const double weight = weight_[net];
    if (config_.coupling_epsilon != 0.0 && partner_[net] != netlist::kNoNet &&
        engine_ != nullptr) {
        // Lanes where the neighbour sits at the opposite level pay the
        // Miller term, same-level lanes get the shielding discount --
        // the per-lane analogue of the scalar recorder's branch.
        const std::uint64_t opposite = engine_->word(partner_[net]) ^ values;
        if (dense)
            kernels_.deposit_coupled(row, lane_toggles_.data(), toggled,
                                     opposite, weight,
                                     config_.coupling_epsilon);
        else
            kernels::deposit_coupled_scalar(row, lane_toggles_.data(), toggled,
                                            opposite, weight,
                                            config_.coupling_epsilon);
    } else if (dense) {
        kernels_.deposit(row, lane_toggles_.data(), toggled, weight);
    } else {
        // One walk covers both the per-lane counter and the deposit
        // (glitch-window masks are sparse: schedule groups split lanes by
        // mark time).
        kernels::deposit_scalar(row, lane_toggles_.data(), toggled, weight);
    }
}

void BatchPowerRecorder::lane_trace_into(unsigned lane,
                                         std::vector<double>& out) const {
    out.resize(bins_);
    for (std::size_t bin = 0; bin < bins_; ++bin)
        out[bin] = trace_[bin * sim::kBatchLanes + lane];
}

void BatchPowerRecorder::noisy_lane_trace_into(unsigned lane, Xoshiro256& rng,
                                               double sigma,
                                               std::vector<double>& out) const {
    lane_trace_into(lane, out);
    if (sigma > 0.0)
        for (double& sample : out) sample += rng.gaussian(0.0, sigma);
}

}  // namespace glitchmask::power

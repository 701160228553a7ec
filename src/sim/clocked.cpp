#include "sim/clocked.hpp"

#include <algorithm>
#include <stdexcept>

namespace glitchmask::sim {

ControlGroups::ControlGroups(unsigned max_group)
    : enable_(max_group + 1u, 0), reset_(max_group + 1u, 0) {
    enable_[netlist::kAlwaysEnabled] = 1;
}

void ControlGroups::set_enable(CtrlGroup group, bool enabled) {
    if (group == netlist::kAlwaysEnabled)
        throw std::runtime_error("clocked sim: group 0 is always enabled");
    enable_.at(group) = enabled ? 1 : 0;
}

void ControlGroups::set_reset(CtrlGroup group, bool asserted) {
    if (group == netlist::kAlwaysEnabled)
        throw std::runtime_error("clocked sim: group 0 cannot be reset");
    reset_.at(group) = asserted ? 1 : 0;
}

void ControlGroups::clear() noexcept {
    std::fill(enable_.begin(), enable_.end(), std::uint8_t{0});
    std::fill(reset_.begin(), reset_.end(), std::uint8_t{0});
    enable_[netlist::kAlwaysEnabled] = 1;
}

ClockedSim::ClockedSim(const Netlist& nl, const DelayModel& dm,
                       ClockConfig clock, CouplingConfig coupling,
                       SimOptions options)
    : nl_(nl),
      dm_(dm),
      clock_(clock),
      engine_(nl, dm, coupling, options),
      controls_(nl.max_ctrl_group()) {}

void ClockedSim::set_input(NetId input, bool value) {
    if (nl_.cell(input).kind != netlist::CellKind::Input)
        throw std::runtime_error("ClockedSim::set_input: not a primary input");
    pending_.push_back({input, value});
}

void ClockedSim::set_input_bus(const Bus& bus, std::uint64_t value) {
    for (std::size_t i = 0; i < bus.size(); ++i)
        set_input(bus[i], ((value >> i) & 1u) != 0);
}

std::uint64_t ClockedSim::read_bus(const Bus& bus) const {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < bus.size(); ++i)
        if (engine_.value(bus[i])) value |= std::uint64_t{1} << i;
    return value;
}

void ClockedSim::step(std::size_t cycles) {
    for (std::size_t n = 0; n < cycles; ++n) {
        const TimePs edge = static_cast<TimePs>(cycle_) * clock_.period_ps;
        engine_.begin_activity_window();

        // 1. Sample the flops with the pin view at the edge.
        flop_updates_.clear();
        for (const CellId flop : nl_.flops()) {
            const netlist::Cell& cell = nl_.cell(flop);
            bool q = engine_.value(flop);
            if (cell.reset != netlist::kAlwaysEnabled &&
                controls_.in_reset(cell.reset)) {
                q = false;
            } else if (controls_.enabled(cell.enable)) {
                q = engine_.pin_value(flop, 0);
            }
            if (q != engine_.value(flop)) flop_updates_.push_back({flop, q});
        }

        // 2. Launch new Q values and pending input changes after clk-to-Q.
        const TimePs launch = edge + dm_.clk_to_q();
        for (const FlopUpdate& update : flop_updates_)
            engine_.drive(update.net, update.value, launch);
        for (const PendingInput& input : pending_)
            engine_.drive(input.net, input.value, launch);
        pending_.clear();

        // 3. Settle until just before the next edge.
        engine_.run_until(edge + clock_.period_ps);
        ++cycle_;
    }
}

void ClockedSim::restart() {
    engine_.initialize();
    controls_.clear();
    pending_.clear();
    cycle_ = 0;
}

}  // namespace glitchmask::sim

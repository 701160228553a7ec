// Cycle-level testbench driver around the event simulator.
//
// ClockedSim owns the clock: at every rising edge it samples the D pins
// of enabled flip-flops (as visible through the wire delays -- a signal
// arriving "too late" genuinely misses the edge), applies pending primary
// input changes, launches the new Q values with clock-to-Q delay, and then
// lets the combinational network settle event by event until the next
// edge.  Flip-flop enable and reset lines are grouped; the per-design
// control FSMs (e.g. the secAND2-FF sampling schedule of paper Sec. III-A)
// toggle whole groups per cycle from C++.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"
#include "sim/delay_model.hpp"
#include "sim/simulator.hpp"

namespace glitchmask::sim {

using netlist::Bus;
using netlist::CtrlGroup;

struct ClockConfig {
    TimePs period_ps = 20000;
};

/// Enable/reset state of the flop control groups -- the one copy the
/// three clocked drivers (ClockedSim, BatchClockedSim, CompiledClockedSim)
/// share.  Group 0 is always enabled and never reset; every other group
/// starts disabled with its reset deasserted.
class ControlGroups {
public:
    explicit ControlGroups(unsigned max_group);

    /// Throws std::runtime_error for group 0, std::out_of_range for a
    /// group past the netlist's highest.
    void set_enable(CtrlGroup group, bool enabled);
    void set_reset(CtrlGroup group, bool asserted);

    /// Back to the defaults.
    void clear() noexcept;

    [[nodiscard]] bool enabled(CtrlGroup group) const noexcept {
        return enable_[group] != 0;
    }
    [[nodiscard]] bool in_reset(CtrlGroup group) const noexcept {
        return reset_[group] != 0;
    }
    /// One byte per group, indexed by CtrlGroup (the compiled engine's
    /// flop sampler reads these directly).
    [[nodiscard]] const std::uint8_t* enable_data() const noexcept {
        return enable_.data();
    }
    [[nodiscard]] const std::uint8_t* reset_data() const noexcept {
        return reset_.data();
    }

private:
    std::vector<std::uint8_t> enable_;
    std::vector<std::uint8_t> reset_;
};

class ClockedSim {
public:
    ClockedSim(const Netlist& nl, const DelayModel& dm, ClockConfig clock = {},
               CouplingConfig coupling = {}, SimOptions options = {});

    /// Enables/disables a flop group for subsequent edges.  Group 0 is
    /// always enabled; non-zero groups start *disabled*.
    void set_enable(CtrlGroup group, bool enabled) {
        controls_.set_enable(group, enabled);
    }

    /// Asserts/deasserts synchronous reset (to 0) for a flop group.
    void set_reset(CtrlGroup group, bool asserted) {
        controls_.set_reset(group, asserted);
    }

    /// Schedules a primary-input change; it takes effect right after the
    /// next clock edge (like the output of an external register).
    void set_input(NetId input, bool value);
    void set_input_bus(const Bus& bus, std::uint64_t value);

    /// Advances `cycles` rising edges.
    void step(std::size_t cycles = 1);

    [[nodiscard]] bool value(NetId net) const { return engine_.value(net); }
    [[nodiscard]] std::uint64_t read_bus(const Bus& bus) const;

    [[nodiscard]] std::size_t cycle() const noexcept { return cycle_; }
    [[nodiscard]] TimePs period() const noexcept { return clock_.period_ps; }
    [[nodiscard]] EventSimulator& engine() noexcept { return engine_; }
    [[nodiscard]] const EventSimulator& engine() const noexcept { return engine_; }

    /// Back to the all-zero reset state at cycle 0 (keeps the configured
    /// sink, enables and resets return to defaults, pending inputs drop).
    void restart();

private:
    const Netlist& nl_;
    const DelayModel& dm_;
    ClockConfig clock_;
    EventSimulator engine_;
    ControlGroups controls_;
    struct PendingInput {
        NetId net;
        bool value;
    };
    std::vector<PendingInput> pending_;
    struct FlopUpdate {
        NetId net;
        bool value;
    };
    std::vector<FlopUpdate> flop_updates_;  // step()'s per-edge scratch
    std::size_t cycle_ = 0;
};

}  // namespace glitchmask::sim

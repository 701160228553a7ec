#include "sim/functional.hpp"

#include <stdexcept>

namespace glitchmask::sim {

ZeroDelaySim::ZeroDelaySim(const netlist::Netlist& nl) : nl_(nl) {
    if (!nl.frozen()) throw std::runtime_error("ZeroDelaySim: netlist not frozen");
    values_.assign(nl.size(), 0);
    enable_.assign(nl.max_ctrl_group() + 1u, 0);
    reset_.assign(nl.max_ctrl_group() + 1u, 0);
    enable_[netlist::kAlwaysEnabled] = 1;
    settle();
}

void ZeroDelaySim::set_enable(CtrlGroup group, bool enabled) {
    if (group == netlist::kAlwaysEnabled)
        throw std::runtime_error("ZeroDelaySim: group 0 is always enabled");
    enable_.at(group) = enabled ? 1 : 0;
}

void ZeroDelaySim::set_reset(CtrlGroup group, bool asserted) {
    if (group == netlist::kAlwaysEnabled)
        throw std::runtime_error("ZeroDelaySim: group 0 cannot be reset");
    reset_.at(group) = asserted ? 1 : 0;
}

void ZeroDelaySim::set_input(NetId input, bool value) {
    if (nl_.cell(input).kind != netlist::CellKind::Input)
        throw std::runtime_error("ZeroDelaySim::set_input: not a primary input");
    pending_.push_back({input, value});
}

void ZeroDelaySim::set_input_bus(const Bus& bus, std::uint64_t value) {
    for (std::size_t i = 0; i < bus.size(); ++i)
        set_input(bus[i], ((value >> i) & 1u) != 0);
}

std::uint64_t ZeroDelaySim::read_bus(const Bus& bus) const {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < bus.size(); ++i)
        if (values_[bus[i]] != 0) value |= std::uint64_t{1} << i;
    return value;
}

void ZeroDelaySim::settle() {
    // Creation order is topological for combinational cells; inputs and
    // flops hold state, constants settle to their value.
    for (netlist::CellId id = 0; id < nl_.size(); ++id) {
        const netlist::Cell& cell = nl_.cell(id);
        switch (cell.kind) {
            case netlist::CellKind::Input:
            case netlist::CellKind::Dff:
                break;
            case netlist::CellKind::Const0:
                values_[id] = 0;
                break;
            case netlist::CellKind::Const1:
                values_[id] = 1;
                break;
            default: {
                const unsigned pins = netlist::pin_count(cell.kind);
                bool a = false;
                bool b = false;
                bool c = false;
                if (pins > 0) a = values_[cell.in[0]] != 0;
                if (pins > 1) b = values_[cell.in[1]] != 0;
                if (pins > 2) c = values_[cell.in[2]] != 0;
                values_[id] = netlist::eval_cell(cell.kind, a, b, c) ? 1 : 0;
                break;
            }
        }
    }
}

void ZeroDelaySim::step(std::size_t cycles) {
    for (std::size_t n = 0; n < cycles; ++n) {
        // Sample flops from the settled previous-cycle values.
        std::vector<std::pair<netlist::CellId, std::uint8_t>> updates;
        for (const netlist::CellId flop : nl_.flops()) {
            const netlist::Cell& cell = nl_.cell(flop);
            std::uint8_t q = values_[flop];
            if (cell.reset != netlist::kAlwaysEnabled && reset_[cell.reset] != 0) {
                q = 0;
            } else if (enable_[cell.enable] != 0) {
                q = values_[cell.in[0]];
            }
            updates.emplace_back(flop, q);
        }
        for (const auto& [flop, q] : updates) values_[flop] = q;
        for (const PendingInput& input : pending_) values_[input.net] = input.value;
        pending_.clear();
        settle();
        ++cycle_;
    }
}

void ZeroDelaySim::restart() {
    values_.assign(values_.size(), 0);
    enable_.assign(enable_.size(), 0);
    reset_.assign(reset_.size(), 0);
    enable_[netlist::kAlwaysEnabled] = 1;
    pending_.clear();
    cycle_ = 0;
    settle();
}

}  // namespace glitchmask::sim


#include "netlist/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace glitchmask::netlist {

Netlist::Netlist() {
    module_names_.emplace_back("");  // module 0: top
}

void Netlist::push_name(std::string_view name) {
    if (!name.empty()) {
        name_chars_ += scope_prefix_;
        name_chars_ += name;
    }
    name_end_.push_back(static_cast<std::uint32_t>(name_chars_.size()));
}

CellId Netlist::add(CellKind kind, NetId a, NetId b, NetId c,
                    std::string_view name) {
    frozen_ = false;
    const CellId id = static_cast<CellId>(cells_.size());
    Cell cell;
    cell.kind = kind;
    cell.module = current_module_;
    cell.in = {a, b, c};
    const unsigned pins = pin_count(kind);
    for (unsigned p = 0; p < pins; ++p) {
        if (cell.in[p] == kNoNet)
            throw std::runtime_error("Netlist::add: unconnected pin on cell " +
                                     std::string(kind_name(kind)));
        if (cell.in[p] >= id)
            // Forward references are allowed only for flop D pins rewired
            // later; keep construction strictly feed-forward for clarity.
            throw std::runtime_error("Netlist::add: pin references unknown net");
    }
    cells_.push_back(cell);
    push_name(name);
    if (kind == CellKind::Input) inputs_.push_back(id);
    if (kind == CellKind::Dff) flops_.push_back(id);
    return id;
}

NetId Netlist::input(std::string_view name) { return add(CellKind::Input, kNoNet, kNoNet, kNoNet, name); }

NetId Netlist::const0() {
    if (const0_ == kNoNet) const0_ = add(CellKind::Const0);
    return const0_;
}

NetId Netlist::const1() {
    if (const1_ == kNoNet) const1_ = add(CellKind::Const1);
    return const1_;
}

NetId Netlist::buf(NetId a, std::string_view name) { return add(CellKind::Buf, a, kNoNet, kNoNet, name); }
NetId Netlist::inv(NetId a, std::string_view name) { return add(CellKind::Inv, a, kNoNet, kNoNet, name); }
NetId Netlist::delay_buf(NetId a, std::string_view name) { return add(CellKind::DelayBuf, a, kNoNet, kNoNet, name); }
NetId Netlist::and2(NetId a, NetId b, std::string_view name) { return add(CellKind::And2, a, b, kNoNet, name); }
NetId Netlist::nand2(NetId a, NetId b, std::string_view name) { return add(CellKind::Nand2, a, b, kNoNet, name); }
NetId Netlist::or2(NetId a, NetId b, std::string_view name) { return add(CellKind::Or2, a, b, kNoNet, name); }
NetId Netlist::nor2(NetId a, NetId b, std::string_view name) { return add(CellKind::Nor2, a, b, kNoNet, name); }
NetId Netlist::xor2(NetId a, NetId b, std::string_view name) { return add(CellKind::Xor2, a, b, kNoNet, name); }
NetId Netlist::xnor2(NetId a, NetId b, std::string_view name) { return add(CellKind::Xnor2, a, b, kNoNet, name); }
NetId Netlist::orn2(NetId a, NetId b, std::string_view name) { return add(CellKind::Orn2, a, b, kNoNet, name); }
NetId Netlist::secand3(NetId a, NetId b, NetId c, std::string_view name) { return add(CellKind::SecAnd3, a, b, c, name); }
NetId Netlist::mux2(NetId in0, NetId in1, NetId sel, std::string_view name) {
    return add(CellKind::Mux2, in0, in1, sel, name);
}

NetId Netlist::dff(NetId d, CtrlGroup enable, CtrlGroup reset,
                   std::string_view name) {
    const CellId id = add(CellKind::Dff, d, kNoNet, kNoNet, name);
    cells_[id].enable = enable;
    cells_[id].reset = reset;
    max_ctrl_ = std::max({max_ctrl_, enable, reset});
    return id;
}

NetId Netlist::dff_floating(CtrlGroup enable, CtrlGroup reset,
                            std::string_view name) {
    frozen_ = false;
    const CellId id = static_cast<CellId>(cells_.size());
    Cell cell;
    cell.kind = CellKind::Dff;
    cell.module = current_module_;
    cell.enable = enable;
    cell.reset = reset;
    cells_.push_back(cell);
    push_name(name);
    flops_.push_back(id);
    max_ctrl_ = std::max({max_ctrl_, enable, reset});
    return id;
}

void Netlist::connect_flop(CellId flop, NetId d) {
    frozen_ = false;
    if (flop >= cells_.size() || cells_[flop].kind != CellKind::Dff)
        throw std::runtime_error("Netlist::connect_flop: not a flop");
    if (d >= cells_.size())
        throw std::runtime_error("Netlist::connect_flop: unknown net");
    cells_[flop].in[0] = d;
}

void Netlist::couple(NetId a, NetId b) {
    if (a >= cells_.size() || b >= cells_.size() || a == b)
        throw std::runtime_error("Netlist::couple: invalid net pair");
    coupled_.push_back({a, b});
}

void Netlist::push_scope(std::string_view name) {
    scope_stack_.push_back({static_cast<std::uint32_t>(scope_prefix_.size()),
                            current_module_});
    scope_prefix_ += name;
    scope_prefix_ += '/';
    module_names_.push_back(scope_prefix_);
    current_module_ = static_cast<std::uint32_t>(module_names_.size() - 1);
}

void Netlist::pop_scope() {
    assert(!scope_stack_.empty());
    scope_prefix_.resize(scope_stack_.back().prefix_size);
    current_module_ = scope_stack_.back().outer_module;
    scope_stack_.pop_back();
}

void Netlist::freeze() {
    if (frozen_) return;

    for (const CellId flop : flops_)
        if (cells_[flop].in[0] == kNoNet)
            throw std::runtime_error("Netlist::freeze: unconnected flop D pin (" +
                                     std::string(name(flop)) + ")");

    // Fanout lists (counting sort by driver).  The fill uses
    // fanout_offset_[d] as driver d's cursor, which leaves each entry at
    // the next driver's start; shifting the array up one restores it.
    fanout_offset_.assign(cells_.size() + 1, 0);
    for (const Cell& cell : cells_) {
        const unsigned pins = pin_count(cell.kind);
        for (unsigned p = 0; p < pins; ++p) ++fanout_offset_[cell.in[p] + 1];
    }
    for (std::size_t i = 1; i < fanout_offset_.size(); ++i)
        fanout_offset_[i] += fanout_offset_[i - 1];
    fanout_flat_.resize(fanout_offset_.back());
    for (CellId id = 0; id < cells_.size(); ++id) {
        const Cell& cell = cells_[id];
        const unsigned pins = pin_count(cell.kind);
        for (unsigned p = 0; p < pins; ++p)
            fanout_flat_[fanout_offset_[cell.in[p]]++] = {
                id, static_cast<std::uint8_t>(p)};
    }
    for (std::size_t i = cells_.size(); i > 0; --i)
        fanout_offset_[i] = fanout_offset_[i - 1];
    fanout_offset_[0] = 0;

    frozen_ = true;
}

std::span<const Sink> Netlist::fanout(NetId id) const noexcept {
    assert(frozen_);
    const std::uint32_t begin = fanout_offset_[id];
    const std::uint32_t end = fanout_offset_[id + 1];
    return {fanout_flat_.data() + begin, end - begin};
}

std::array<std::size_t, kNumCellKinds> Netlist::kind_histogram() const {
    std::array<std::size_t, kNumCellKinds> histogram{};
    for (const Cell& cell : cells_) ++histogram[static_cast<std::size_t>(cell.kind)];
    return histogram;
}

}  // namespace glitchmask::netlist

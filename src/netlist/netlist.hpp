// Gate-level netlist model.
//
// This is the structural substrate everything else is built on: masked
// gadgets (core/), the DES cores (des/), static timing (sta), area
// accounting (area), the LUT estimate (lutmap) and both simulators (sim/)
// all operate on this representation.
//
// Representation choices:
//  * Every cell has exactly one output; the net is identified with the
//    driving cell, so NetId == CellId.  Primary inputs are `Input` cells.
//  * Flip-flops carry an *enable group* and a *reset group* instead of
//    enable/reset nets.  The papers' designs control FF sampling order
//    with a small FSM; we keep that FSM in C++ testbench code (see
//    sim::ClockedSim) and tag each FF with the group the FSM drives.
//    This matches the paper's "the enable signal controls when the FF
//    samples" usage without modelling the (side-channel-irrelevant)
//    control logic as gates.
//  * Hierarchy is kept as a scope stack: every cell records the module
//    scope it was created in, so area reports can be broken down per
//    gadget ("Keep Hierarchy" discipline -- shares are never merged
//    across gadget boundaries because we do no logic optimization at all).
//  * Coupled net pairs (physically adjacent delay-chain wires) are
//    recorded in the netlist and consumed by the simulator's coupling
//    model (paper Sec. VII-C).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace glitchmask::netlist {

using CellId = std::uint32_t;
using NetId = std::uint32_t;  // == id of the driving cell
inline constexpr NetId kNoNet = 0xFFFFFFFFu;

/// Enable/reset group identifiers; group 0 is hard-wired "always enabled"
/// / "never reset".
using CtrlGroup = std::uint16_t;
inline constexpr CtrlGroup kAlwaysEnabled = 0;

enum class CellKind : std::uint8_t {
    Input,     // primary input (value driven by the testbench)
    Const0,    // constant 0
    Const1,    // constant 1
    Buf,       // buffer
    Inv,       // inverter
    DelayBuf,  // buffer used purely as a delay element (one LUT / 12 INV)
    And2,
    Nand2,
    Or2,
    Nor2,
    Xor2,
    Xnor2,
    Orn2,      // in0 | !in1 (OR with inverted b; one LUT / ORN2 cell --
               // the secAND2 "x | !y1" term maps to this on hardware)
    SecAnd3,   // (a & b) ^ (a | !c): one secAND2 output share as a single
               // 3-input LUT -- the paper's FPGA mapping of Eq. 2 (each
               // z output computed in one LUT, so it transitions once per
               // input arrival instead of glitching between sub-gates)
    Mux2,      // in2 ? in1 : in0
    Dff,       // D flip-flop: in0 = D; enable/reset via ctrl groups
};

inline constexpr std::size_t kNumCellKinds = 16;

/// Number of input pins for a cell kind.
[[nodiscard]] constexpr unsigned pin_count(CellKind kind) noexcept {
    switch (kind) {
        case CellKind::Input:
        case CellKind::Const0:
        case CellKind::Const1: return 0;
        case CellKind::Buf:
        case CellKind::Inv:
        case CellKind::DelayBuf:
        case CellKind::Dff: return 1;
        case CellKind::Mux2:
        case CellKind::SecAnd3: return 3;
        default: return 2;
    }
}

/// Sources drive a net without evaluating pins: primary inputs,
/// constants and flip-flops.  Every other cell is combinational, and
/// creation order is a topological order of those (add() only accepts
/// pins that reference existing cells).
[[nodiscard]] constexpr bool is_source(CellKind kind) noexcept {
    return kind == CellKind::Input || kind == CellKind::Const0 ||
           kind == CellKind::Const1 || kind == CellKind::Dff;
}

[[nodiscard]] constexpr std::string_view kind_name(CellKind kind) noexcept {
    switch (kind) {
        case CellKind::Input: return "INPUT";
        case CellKind::Const0: return "CONST0";
        case CellKind::Const1: return "CONST1";
        case CellKind::Buf: return "BUF";
        case CellKind::Inv: return "INV";
        case CellKind::DelayBuf: return "DELAYBUF";
        case CellKind::And2: return "AND2";
        case CellKind::Nand2: return "NAND2";
        case CellKind::Or2: return "OR2";
        case CellKind::Nor2: return "NOR2";
        case CellKind::Xor2: return "XOR2";
        case CellKind::Xnor2: return "XNOR2";
        case CellKind::Orn2: return "ORN2";
        case CellKind::SecAnd3: return "SECAND3";
        case CellKind::Mux2: return "MUX2";
        case CellKind::Dff: return "DFF";
    }
    return "?";
}

/// Combinational evaluation of a cell given its input pin values.
/// Dff evaluates to its D pin (used only when explicitly sampling).
[[nodiscard]] constexpr bool eval_cell(CellKind kind, bool a, bool b = false,
                                       bool c = false) noexcept {
    switch (kind) {
        case CellKind::Input: return a;   // value injected via pin 0
        case CellKind::Const0: return false;
        case CellKind::Const1: return true;
        case CellKind::Buf:
        case CellKind::DelayBuf: return a;
        case CellKind::Inv: return !a;
        case CellKind::And2: return a && b;
        case CellKind::Nand2: return !(a && b);
        case CellKind::Or2: return a || b;
        case CellKind::Nor2: return !(a || b);
        case CellKind::Xor2: return a != b;
        case CellKind::Xnor2: return a == b;
        case CellKind::Orn2: return a || !b;
        case CellKind::SecAnd3: return (a && b) != (a || !c);
        case CellKind::Mux2: return c ? b : a;
        case CellKind::Dff: return a;
    }
    return false;
}

/// Word-parallel evaluation of a cell: each of the 64 bit positions is an
/// independent evaluation (one simulation lane).  Bit-for-bit consistent
/// with eval_cell at every lane -- the bitsliced simulator relies on that.
[[nodiscard]] constexpr std::uint64_t eval_cell_word(CellKind kind,
                                                     std::uint64_t a,
                                                     std::uint64_t b = 0,
                                                     std::uint64_t c = 0) noexcept {
    switch (kind) {
        case CellKind::Input: return a;
        case CellKind::Const0: return 0;
        case CellKind::Const1: return ~std::uint64_t{0};
        case CellKind::Buf:
        case CellKind::DelayBuf: return a;
        case CellKind::Inv: return ~a;
        case CellKind::And2: return a & b;
        case CellKind::Nand2: return ~(a & b);
        case CellKind::Or2: return a | b;
        case CellKind::Nor2: return ~(a | b);
        case CellKind::Xor2: return a ^ b;
        case CellKind::Xnor2: return ~(a ^ b);
        case CellKind::Orn2: return a | ~b;
        case CellKind::SecAnd3: return (a & b) ^ (a | ~c);
        case CellKind::Mux2: return (c & b) | (~c & a);
        case CellKind::Dff: return a;
    }
    return 0;
}

struct Cell {
    CellKind kind = CellKind::Const0;
    CtrlGroup enable = kAlwaysEnabled;   // Dff only
    CtrlGroup reset = kAlwaysEnabled;    // Dff only; 0 = no reset group
    std::uint32_t module = 0;            // index into Netlist::module_names()
    std::array<NetId, 3> in{kNoNet, kNoNet, kNoNet};
};

/// One sink of a net: (cell, pin).
struct Sink {
    CellId cell;
    std::uint8_t pin;
};

/// Pair of nets whose physical wires are adjacent (coupling candidates).
struct CoupledPair {
    NetId a;
    NetId b;
};

class Netlist {
public:
    Netlist();

    // ----- construction -------------------------------------------------

    /// Raw cell constructor; prefer the typed helpers below.
    CellId add(CellKind kind, NetId a = kNoNet, NetId b = kNoNet, NetId c = kNoNet,
               std::string_view name = {});

    NetId input(std::string_view name);
    NetId const0();
    NetId const1();
    NetId buf(NetId a, std::string_view name = {});
    NetId inv(NetId a, std::string_view name = {});
    NetId delay_buf(NetId a, std::string_view name = {});
    NetId and2(NetId a, NetId b, std::string_view name = {});
    NetId nand2(NetId a, NetId b, std::string_view name = {});
    NetId or2(NetId a, NetId b, std::string_view name = {});
    NetId nor2(NetId a, NetId b, std::string_view name = {});
    NetId xor2(NetId a, NetId b, std::string_view name = {});
    NetId xnor2(NetId a, NetId b, std::string_view name = {});
    NetId orn2(NetId a, NetId b, std::string_view name = {});
    /// One secAND2 output share: (a & b) ^ (a | !c) as a single LUT.
    NetId secand3(NetId a, NetId b, NetId c, std::string_view name = {});
    NetId mux2(NetId in0, NetId in1, NetId sel, std::string_view name = {});

    /// D flip-flop.  `enable`/`reset` are control groups driven per cycle
    /// by the testbench FSM (group 0: always enabled / never reset).
    NetId dff(NetId d, CtrlGroup enable = kAlwaysEnabled,
              CtrlGroup reset = kAlwaysEnabled, std::string_view name = {});

    /// D flip-flop whose D pin will be connected later with connect_flop()
    /// -- needed for feedback (state registers fed by logic computed from
    /// their own Q).  freeze() throws if any flop is left unconnected.
    NetId dff_floating(CtrlGroup enable = kAlwaysEnabled,
                       CtrlGroup reset = kAlwaysEnabled,
                       std::string_view name = {});

    /// Connects (or rewires) the D pin of `flop`.  `d` may reference a cell
    /// created after the flop: this cannot create a combinational cycle
    /// because a flop output is a sequential source.
    void connect_flop(CellId flop, NetId d);

    /// Marks two nets as physically adjacent for the coupling model.
    void couple(NetId a, NetId b);

    /// Hierarchical naming scope; affects cells created while pushed.
    void push_scope(std::string_view name);
    void pop_scope();

    /// RAII helper for push_scope/pop_scope.
    class Scope {
    public:
        Scope(Netlist& owner, std::string_view name) : owner_(owner) {
            owner_.push_scope(name);
        }
        ~Scope() { owner_.pop_scope(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Netlist& owner_;
    };

    // ----- freeze & queries ----------------------------------------------

    /// Builds the fanout lists; throws std::runtime_error on a flop left
    /// without a D pin.  Must be called before handing the netlist to a
    /// simulator / STA / mapper.  Adding cells afterwards un-freezes the
    /// netlist.
    void freeze();
    [[nodiscard]] bool frozen() const noexcept { return frozen_; }

    [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }
    [[nodiscard]] const Cell& cell(CellId id) const noexcept { return cells_[id]; }
    [[nodiscard]] std::span<const Cell> cells() const noexcept { return cells_; }

    /// Sinks of the net driven by `id` (valid after freeze()).
    [[nodiscard]] std::span<const Sink> fanout(NetId id) const noexcept;

    [[nodiscard]] std::span<const CellId> inputs() const noexcept { return inputs_; }
    [[nodiscard]] std::span<const CellId> flops() const noexcept { return flops_; }
    [[nodiscard]] std::span<const CoupledPair> coupled_pairs() const noexcept {
        return coupled_;
    }

    /// Cell counts per kind (for area/LUT accounting and reports).
    [[nodiscard]] std::array<std::size_t, kNumCellKinds> kind_histogram() const;

    /// Name lookup (empty when the cell was created without a name).
    [[nodiscard]] std::string_view name(CellId id) const noexcept {
        return {name_chars_.data() + name_end_[id],
                name_end_[id + 1] - name_end_[id]};
    }
    [[nodiscard]] const std::vector<std::string>& module_names() const noexcept {
        return module_names_;
    }
    [[nodiscard]] std::uint32_t module_of(CellId id) const noexcept {
        return cells_[id].module;
    }

    /// Highest control group id referenced by any flop (for sizing the
    /// testbench's enable/reset vectors).
    [[nodiscard]] CtrlGroup max_ctrl_group() const noexcept { return max_ctrl_; }

private:
    /// Appends the next cell's scoped name to the name arena.
    void push_name(std::string_view name);

    std::vector<Cell> cells_;
    // Every cell name, scope prefix included, back to back in one arena:
    // cell c's name is name_chars_[name_end_[c], name_end_[c + 1]).
    std::string name_chars_;
    std::vector<std::uint32_t> name_end_{0};
    std::vector<CellId> inputs_;
    std::vector<CellId> flops_;
    std::vector<CoupledPair> coupled_;

    // scope machinery: per open scope, the prefix length and module id to
    // restore when it closes
    struct OpenScope {
        std::uint32_t prefix_size;
        std::uint32_t outer_module;
    };
    std::vector<OpenScope> scope_stack_;
    std::string scope_prefix_;
    std::vector<std::string> module_names_;
    std::uint32_t current_module_ = 0;

    // freeze products
    bool frozen_ = false;
    std::vector<Sink> fanout_flat_;
    std::vector<std::uint32_t> fanout_offset_;

    NetId const0_ = kNoNet;
    NetId const1_ = kNoNet;
    CtrlGroup max_ctrl_ = 0;
};

}  // namespace glitchmask::netlist

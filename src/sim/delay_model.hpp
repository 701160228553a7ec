// Per-instance timing annotation of a netlist.
//
// This is what makes the simulator "glitchy": every gate instance gets a
// static, seeded random delay around its kind's nominal value, and every
// (cell, pin) edge gets a static random wire (routing) delay.  Different
// arrival times at reconvergent gates then produce exactly the transient
// toggles the paper attributes to glitches.  The jitter is *data
// independent* (fixed at construction, like placement and routing), which
// is what distinguishes benign skew from the data-dependent coupling
// effects modelled separately (sim/simulator.hpp, CouplingConfig).
//
// DelayBuf cells (LUT delay elements, paper Sec. V) get their own nominal
// delay and a much smaller jitter: the paper hand-places them with
// location constraints precisely to make their delay replicable.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace glitchmask::sim {

using netlist::CellId;
using netlist::CellKind;
using netlist::Netlist;
using netlist::NetId;

/// Simulation time in picoseconds.
using TimePs = std::uint64_t;

struct DelayConfig {
    /// Nominal propagation delay per cell kind [ps].
    std::array<std::uint32_t, netlist::kNumCellKinds> nominal_ps{};

    /// Relative uniform jitter on gate delays (0.25 = +-25%).
    double gate_jitter = 0.25;

    /// Routing delay per (cell, pin) edge: uniform in [wire_min, wire_max].
    /// This range is the "placement uncertainty" the DelayUnits must beat:
    /// a 1-LUT DelayUnit (~0.65 ns) is smaller than the spread, a 10-LUT
    /// unit (~6.5 ns) safely dominates it -- reproducing paper Fig. 15.
    std::uint32_t wire_min_ps = 50;
    std::uint32_t wire_max_ps = 2500;

    /// Relative jitter on DelayBuf cells (hand-placed, replicable).
    double delaybuf_jitter = 0.08;

    /// Clock-to-Q of flip-flops and launch delay of primary inputs.
    std::uint32_t clk_to_q_ps = 200;

    /// Flip-flop setup time (used by STA only).
    std::uint32_t setup_ps = 100;

    /// Seed for the static per-instance jitter ("placement seed").
    std::uint64_t seed = 1;

    /// Spartan-6-flavoured defaults: LUT logic ~250-300 ps, one DelayBuf
    /// (LUT + its local routing) ~600 ps, routing skew up to ~1.6 ns.
    [[nodiscard]] static DelayConfig spartan6();

    /// Zero-jitter variant (all wires wire_min, no gate jitter); useful in
    /// unit tests that need exact arrival arithmetic.
    [[nodiscard]] static DelayConfig deterministic();
};

/// The static delays of one netlist.  A DelayModel has no mutators: it is
/// a pure function of (netlist, DelayConfig), drawn once at construction.
/// The compiled engine's program cache relies on that -- it keys programs
/// by the netlist structure and config(), not by the drawn delays.
class DelayModel {
public:
    DelayModel(const Netlist& nl, const DelayConfig& config);

    [[nodiscard]] std::uint32_t gate_delay(CellId id) const noexcept {
        return delays_[id * 4];
    }
    [[nodiscard]] std::uint32_t wire_delay(CellId cell, unsigned pin) const noexcept {
        return delays_[cell * 4 + 1 + pin];
    }
    [[nodiscard]] std::uint32_t clk_to_q() const noexcept { return config_.clk_to_q_ps; }
    [[nodiscard]] std::uint32_t setup() const noexcept { return config_.setup_ps; }
    [[nodiscard]] const DelayConfig& config() const noexcept { return config_; }
    [[nodiscard]] std::size_t size() const noexcept { return delays_.size() / 4; }

private:
    DelayConfig config_;
    /// Per cell: the gate delay, then the wire delay of pins 0..2.
    std::vector<std::uint32_t> delays_;
};

/// Static timing analysis result.
struct CriticalPath {
    TimePs delay_ps = 0;          // launch edge to last settling point
    double max_freq_mhz = 0.0;    // 1e6 / (delay + setup)
    std::vector<CellId> path;     // endpoint-first chain of cells
};

/// Longest-path STA over the annotated netlist: arrival of every net from
/// launch (flop Q / primary input) through gate + wire delays; the
/// critical path ends at the latest flop D pin (or the latest net when
/// the design has no flops).
[[nodiscard]] CriticalPath analyze_timing(const Netlist& nl, const DelayModel& dm);

}  // namespace glitchmask::sim

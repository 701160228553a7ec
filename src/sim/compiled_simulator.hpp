// Compiled-netlist replay backend: straight-line wide-lane simulation.
//
// The event engines (sim/simulator.hpp, sim/batch_simulator.hpp) pay for
// generality on every event: a priority-queue sift per push/pop, pointer
// chasing through Netlist::fanout(), and per-event DelayModel lookups.
// All of that is *static* per (netlist, delay model): delays are fixed at
// construction, so the set of possible event times -- and therefore the
// whole scheduling structure -- is data-independent.  This backend
// compiles that structure once into a flat CompiledProgram:
//
//   * levelized settle order (creation order is topological for
//     combinational cells, same order the batch engine uses);
//   * per-cell gate delay / inertial window and a CSR fanout table with
//     the wire delay baked into each edge;
//   * the time-slot ring: because every push is bounded by
//     max(wire) + gate + bump slack picoseconds past the current time,
//     events live in a power-of-two ring of FIFO time slots instead of
//     a priority queue.  Each push/pop is O(1); FIFO order within a
//     slot *is* (time, seq) order, so replay is exactly the event
//     engine's schedule without the heap.  The slots are linked lists
//     (a head/tail pair each) threaded through one flat event pool with
//     a free list, so an engine retains about its live-event peak rather
//     than a vector's capacity per slot.  A tiny overflow heap catches
//     pushes beyond the ring horizon (never hit by the clocked drivers;
//     correctness never depends on the ring size).
//
// Lanes widen past 64 with LW<W> lane-word arrays (W = 1/2/4/8, up to
// 512 traces per pass), amortizing the shared schedule bookkeeping over
// 8x more traces.  Only the *data* widens: masks, pendings and SchedMark
// groups carry LW<W> words, and the per-lane commit discipline (monotonic
// bump marks, inertial cancellation, per-lane toggled masks) is ported
// verbatim from BatchEventSimulator, so each lane's committed waveform is
// bit-identical to a scalar EventSimulator run of that lane's stimulus
// (tests/compiled_sim_test.cpp asserts `==` on the full gadget zoo and
// DES).  Sinks attach per 64-lane chunk (BatchToggleSink + BatchWordView
// per chunk), so BatchPowerRecorder / BatchAttributionProbe work
// unchanged.
//
// Programs are cached in a small process-wide LRU keyed by a word-wise
// fingerprint of (cells, DelayConfig, SimOptions); a campaign compiles
// once and its workers and blocks share one immutable program
// (shared_ptr) instead of recompiling.
//
// Not supported (same rule as the batch engine): timing coupling makes
// DelayBuf delays data-dependent, which breaks the shared-schedule
// premise -- the constructor rejects it and eval/ falls back to the
// scalar path.
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/clocked.hpp"
#include "sim/delay_model.hpp"
#include "sim/lane_sink.hpp"
#include "sim/simulator.hpp"
#include "support/telemetry.hpp"

namespace glitchmask::sim {

/// Widest supported lane word: 8 x 64 = 512 traces per pass.
inline constexpr unsigned kMaxLaneChunks = 8;

/// The widths the compiled engine serves: 64 x {1, 2, 4, 8} lanes.
[[nodiscard]] constexpr bool compiled_lane_width(unsigned lanes) noexcept {
    return lanes == 64 || lanes == 128 || lanes == 256 || lanes == 512;
}

/// Immutable replay program for one (netlist, delay model, SimOptions)
/// triple.  Everything the inner loop touches lives in flat arrays -- one
/// allocation (`storage`) carved into the spans below -- and the program
/// holds no reference to the Netlist or DelayModel it was compiled from;
/// engines share it via shared_ptr.
struct CompiledProgram {
    /// One sink of a net: the sink's packed (pin << 24) | cell id -- the
    /// engine's event key, so a commit pushes it as is -- and the
    /// DelayModel::wire_delay of that pin baked in.
    struct FanoutEdge {
        std::uint32_t cell_pin;
        std::uint32_t wire_ps;
    };
    struct FlopInfo {
        CellId cell;
        netlist::CtrlGroup enable;
        netlist::CtrlGroup reset;
    };

    CompiledProgram() = default;
    CompiledProgram(const CompiledProgram&) = delete;
    CompiledProgram& operator=(const CompiledProgram&) = delete;

    std::uint64_t key = 0;  // structural fingerprint (cache key)
    std::size_t n_cells = 0;

    std::span<const netlist::CellKind> kind;
    /// CSR into the packed pin state (n_cells + 1): cell c's pins are
    /// [pin_base[c], pin_base[c + 1]).  Most cells have 1-2 pins, so
    /// packing nearly halves the engine's pin array.
    std::span<const std::uint32_t> pin_base;
    std::span<const std::uint32_t> gate_ps;
    std::span<const std::uint8_t> settle_one;  // all-sources-low steady state
    std::span<const std::uint32_t> fanout_begin;  // CSR, n_cells + 1 entries
    std::span<const FanoutEdge> fanout;
    std::span<const FlopInfo> flops;

    std::uint32_t clk_to_q = 0;
    unsigned max_ctrl_group = 0;
    bool inertial_filtering = true;
    /// SimOptions::inertial_factor; each engine derives its per-cell
    /// inertial windows with the event engines' rounding expression.
    double inertial_factor = 1.0;

    /// Time-slot ring size (power of two): covers the longest possible
    /// push offset (wire + gate + clk-to-Q + bump slack), so in practice
    /// every event lands in the ring.
    std::size_t ring_size = 0;

    /// Backing store of every span above.
    std::unique_ptr<std::byte[]> storage;
};

/// Compiles (or fetches from the process-wide LRU cache) the replay
/// program for the triple.  `dm` must have been built from `nl`: the
/// cache key covers the netlist structure and dm.config(), not the drawn
/// delays, which is sound because a DelayModel is immutable and a pure
/// function of (netlist, DelayConfig).  Throws std::invalid_argument on
/// an unfrozen netlist or a delay model of another size.
[[nodiscard]] std::shared_ptr<const CompiledProgram> compile_netlist(
    const netlist::Netlist& nl, const DelayModel& dm, SimOptions options = {});

struct CompiledCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
};
[[nodiscard]] CompiledCacheStats compiled_program_cache_stats();
void clear_compiled_program_cache();

/// Type-erased wide-lane engine (W is a template parameter of the
/// implementation; virtual dispatch sits only at coarse call sites --
/// drives, clock edges, run_until -- never inside the event loop).
class CompiledEngineBase {
public:
    virtual ~CompiledEngineBase() = default;

    [[nodiscard]] virtual unsigned chunks() const noexcept = 0;

    /// Consistent steady state for "all sources low" in every lane; no
    /// toggles emitted, time reset to 0.
    virtual void initialize() = 0;

    /// Per-chunk toggle sink: chunk c observes lanes [64c, 64c+64).
    virtual void set_sink(unsigned chunk, BatchToggleSink* sink) noexcept = 0;

    /// Lane-word view of one chunk (energy-coupling tap for
    /// BatchPowerRecorder).  Stable for the engine's lifetime.
    [[nodiscard]] virtual const BatchWordView* chunk_view(
        unsigned chunk) const noexcept = 0;

    /// Drives a source net in one 64-lane chunk.  Throws
    /// std::invalid_argument for a drive in the past.
    virtual void drive_chunk(NetId source, unsigned chunk, std::uint64_t values,
                             std::uint64_t lanes, TimePs time) = 0;
    /// Broadcast drive: every lane of every chunk to `value`.
    virtual void drive_all(NetId source, bool value, TimePs time) = 0;

    /// Samples all flops with the wire-delayed pin view (reset group
    /// beats enable group, exactly like BatchClockedSim) and launches the
    /// changed Q lanes at `launch`.  `enable`/`reset` index ctrl groups.
    virtual void sample_flops(const std::uint8_t* enable,
                              const std::uint8_t* reset, TimePs launch) = 0;

    virtual void run_until(TimePs t_end) = 0;
    virtual TimePs run_to_quiescence() = 0;

    [[nodiscard]] virtual std::uint64_t word(NetId net,
                                             unsigned chunk) const noexcept = 0;

    [[nodiscard]] virtual TimePs now() const noexcept = 0;
    virtual void begin_activity_window() noexcept = 0;

    /// Same per-lane accounting contract as BatchEventSimulator: toggle /
    /// glitch / cancel sums match the scalar engine; events and
    /// queue-peak measure the shared compiled schedule.
    [[nodiscard]] virtual telemetry::SimStats stats() const noexcept = 0;
};

/// `chunks` in {1, 2, 4, 8}.
[[nodiscard]] std::unique_ptr<CompiledEngineBase> make_compiled_engine(
    std::shared_ptr<const CompiledProgram> program, unsigned chunks);

/// Cycle-level testbench driver around the compiled engine -- the wide
/// counterpart of BatchClockedSim; both speak the same chunked-sim API
/// (per-chunk input words, sinks and views).  Lanes = 64 * chunks.
class CompiledClockedSim {
public:
    /// `lanes` must satisfy compiled_lane_width().  Throws
    /// std::invalid_argument on other widths or when timing coupling is
    /// requested.
    CompiledClockedSim(const netlist::Netlist& nl, const DelayModel& dm,
                       unsigned lanes, ClockConfig clock = {},
                       CouplingConfig coupling = {}, SimOptions options = {});
    /// Runs an already compiled program (compile_netlist of `nl`), so
    /// several engines share one compile and one cache lookup.
    CompiledClockedSim(const netlist::Netlist& nl,
                       std::shared_ptr<const CompiledProgram> program,
                       unsigned lanes, ClockConfig clock = {});

    [[nodiscard]] unsigned chunks() const noexcept { return engine_->chunks(); }

    void set_enable(netlist::CtrlGroup group, bool enabled) {
        controls_.set_enable(group, enabled);
    }
    void set_reset(netlist::CtrlGroup group, bool asserted) {
        controls_.set_reset(group, asserted);
    }

    /// Per-chunk primary-input change for right after the next edge.
    void set_input_word(NetId input, unsigned chunk, std::uint64_t values);
    /// Broadcast form (same value in every lane of every chunk).
    void set_input(NetId input, bool value);

    void step(std::size_t cycles = 1);

    [[nodiscard]] std::uint64_t word(NetId net, unsigned chunk) const {
        return engine_->word(net, chunk);
    }
    [[nodiscard]] bool value(NetId net, unsigned lane) const {
        return ((engine_->word(net, lane / 64u) >> (lane % 64u)) & 1u) != 0;
    }

    void set_sink(unsigned chunk, BatchToggleSink* sink) {
        engine_->set_sink(chunk, sink);
    }
    [[nodiscard]] const BatchWordView* chunk_view(unsigned chunk) const {
        return engine_->chunk_view(chunk);
    }

    [[nodiscard]] CompiledEngineBase& engine() noexcept { return *engine_; }
    [[nodiscard]] const CompiledEngineBase& engine() const noexcept {
        return *engine_;
    }
    [[nodiscard]] telemetry::SimStats stats() const noexcept {
        return engine_->stats();
    }
    /// The shared replay program (cache-reuse checks in tests).
    [[nodiscard]] const std::shared_ptr<const CompiledProgram>& program()
        const noexcept {
        return program_;
    }

    void restart();

private:
    const netlist::Netlist& nl_;
    ClockConfig clock_;
    std::shared_ptr<const CompiledProgram> program_;
    std::unique_ptr<CompiledEngineBase> engine_;
    ControlGroups controls_;
    struct PendingInput {
        NetId net;
        std::uint8_t chunk;  // 0xFF = broadcast
        std::uint64_t values;
    };
    std::vector<PendingInput> pending_;
    std::size_t cycle_ = 0;
};

}  // namespace glitchmask::sim

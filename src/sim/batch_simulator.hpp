// Bitsliced 64-lane event simulation: one event-queue pass per 64 traces.
//
// All wire and gate delays in the DelayModel are static and data
// *independent* -- the very property the paper's gadgets are built on --
// so the set of potential event times is identical across traces of a
// campaign.  BatchEventSimulator exploits that: every net and pin holds a
// 64-bit lane word (bit l = the value in trace l), gates re-evaluate with
// word-parallel Boolean ops, and one event is scheduled whenever *any*
// lane changes.  The heap operations, pin bookkeeping and cell
// evaluations -- the cost of the scalar EventSimulator -- are thereby
// amortized over 64 traces.
//
// Equivalence contract: each lane's committed waveform is bit-identical
// to a scalar EventSimulator run of that lane's stimulus (asserted
// exhaustively in tests/batch_sim_test.cpp).  The mechanisms that could
// diverge per lane are all carried as lane masks:
//   * a schedule only covers the lanes whose evaluation actually changed
//     (lanes outside an event's mask provably evaluate to their last
//     scheduled value, so the "changed" word is the per-lane guard);
//   * the per-cell monotonic commit guard ("a later evaluation must not
//     commit before an earlier one") is per-lane: recent schedule times
//     are kept as (time, lane-mask) marks and same-timestamp evaluation
//     bursts split into per-`when` groups exactly as the scalar +1 bump
//     does per lane;
//   * inertial pulse filtering cancels pending commits per lane by
//     clearing lane bits; a commit event applies only to the lanes that
//     survived.
//
// What is NOT supported: timing coupling (CouplingConfig::timing_enabled)
// makes DelayBuf delays depend on a *neighbour's data*, so the shared
// schedule assumption breaks -- the constructor rejects it and campaigns
// fall back to the scalar path (eval/ owns that policy).  Energy coupling
// is fine: it only reads committed lane values (power/batch_power.hpp).
//
// BatchClockedSim, the clocked testbench, speaks the compiled engine's
// chunked-sim API with one chunk; eval::EventLaneSim is an alias of it.
// Sinks and recorders see only sim/lane_sink.hpp, so this header is
// included by its own .cpp, eval/lane_backend.hpp and tests alone.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/clocked.hpp"
#include "sim/delay_model.hpp"
#include "sim/lane_sink.hpp"
#include "sim/simulator.hpp"

namespace glitchmask::sim {

class BatchEventSimulator final : public BatchWordView {
public:
    /// Throws std::invalid_argument when `coupling.timing_enabled` is set:
    /// data-dependent delays break the shared-schedule premise.
    BatchEventSimulator(const Netlist& nl, const DelayModel& dm,
                        CouplingConfig coupling = {}, SimOptions options = {});

    /// Consistent steady state for "all sources low" in every lane; no
    /// toggles emitted, time reset to 0.
    void initialize();

    void set_sink(BatchToggleSink* sink) noexcept { sink_ = sink; }

    /// Drives a source net to per-lane `values` (only lanes in `lanes`
    /// take effect) at `time`.
    void drive(NetId source, std::uint64_t values, std::uint64_t lanes,
               TimePs time);

    /// Processes all events strictly before `t_end` and advances time.
    void run_until(TimePs t_end);

    /// Processes events until the queue drains; returns the global settle
    /// time (max over lanes; per-lane settle times come from the sink).
    TimePs run_to_quiescence();

    [[nodiscard]] std::uint64_t word(NetId net) const noexcept override {
        return out_val_[net];
    }
    [[nodiscard]] bool value(NetId net, unsigned lane) const noexcept {
        return ((out_val_[net] >> lane) & 1u) != 0;
    }
    /// Input pin lane word as currently visible at `cell` (what a flop
    /// samples at a clock edge).
    [[nodiscard]] std::uint64_t pin_word(CellId cell, unsigned pin) const noexcept {
        return pin_val_[cell * 3 + pin];
    }

    [[nodiscard]] TimePs now() const noexcept { return now_; }
    [[nodiscard]] std::size_t processed_events() const noexcept {
        return processed_;
    }
    [[nodiscard]] const Netlist& nl() const noexcept { return nl_; }

    /// Cumulative activity counters (per-lane accounting: toggles,
    /// glitches and cancels count each lane individually, so their sums
    /// across a campaign equal the scalar engine's -- events and queue
    /// peak measure the amortized shared schedule instead).
    [[nodiscard]] telemetry::SimStats stats() const noexcept {
        return telemetry::SimStats{processed_, toggles_, glitches_,
                                   inertial_cancels_, queue_peak_};
    }

    /// Starts a new glitch-accounting window (BatchClockedSim calls this
    /// at every clock edge).  Pure bookkeeping.
    void begin_activity_window() noexcept { ++window_epoch_; }

private:
    struct Event {
        TimePs time;
        std::uint64_t seq;
        CellId cell;
        std::uint8_t pin;     // 0xFF = gate output commit, 0xFE = source drive
        std::uint64_t value;  // lane word (only bits in `lanes` meaningful)
        std::uint64_t lanes;
    };
    /// In-flight output commit; cancellation clears lane bits in place so
    /// the already-queued event commits only the surviving lanes.
    struct Pending {
        TimePs time;
        std::uint64_t seq;
        std::uint64_t lanes;
    };
    /// Recent schedule time shared by the lanes in `lanes` -- the
    /// compressed per-lane last_sched_time of the scalar simulator.  Marks
    /// older than the (non-decreasing) candidate commit time can never
    /// trigger the monotonic bump again and are pruned on the fly.
    struct SchedMark {
        TimePs when;
        std::uint64_t lanes;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const noexcept {
            return (a.time != b.time) ? a.time > b.time : a.seq > b.seq;
        }
    };

    void commit_output(const Event& ev);
    void update_pin(const Event& ev);
    void schedule_output(CellId cell, std::uint64_t value, std::uint64_t changed,
                         TimePs at);
    void schedule_group(CellId cell, std::uint64_t value, std::uint64_t lanes,
                        TimePs when);
    [[nodiscard]] std::uint64_t eval_word(CellId cell) const noexcept;

    const Netlist& nl_;
    const DelayModel& dm_;
    SimOptions options_;
    BatchToggleSink* sink_ = nullptr;

    std::vector<std::uint64_t> out_val_;
    std::vector<std::uint64_t> pin_val_;         // 3 per cell
    std::vector<std::uint64_t> last_sched_out_;  // last scheduled value per lane
    std::vector<std::vector<Pending>> pending_;
    std::vector<std::vector<SchedMark>> marks_;
    std::vector<TimePs> inertial_window_;  // precomputed per cell

    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    std::uint64_t seq_ = 0;
    TimePs now_ = 0;
    std::size_t processed_ = 0;

    // Telemetry counters (see stats()).  Glitch windows use epoch
    // stamping -- no per-cycle O(nets) clearing: a net's toggled-lanes
    // mask is valid only while its stamp matches window_epoch_.
    std::uint64_t toggles_ = 0;
    std::uint64_t glitches_ = 0;
    std::uint64_t inertial_cancels_ = 0;
    std::uint64_t queue_peak_ = 0;
    std::uint32_t window_epoch_ = 1;
    std::vector<std::uint32_t> window_stamp_;   // per net
    std::vector<std::uint64_t> window_toggled_; // lanes toggled this window
};

/// Cycle-level testbench driver around the batch engine -- the lane-word
/// counterpart of ClockedSim, with the identical control API (enable/reset
/// groups, pending primary inputs applied after the edge, per-edge flop
/// sampling through the wire-delayed pin view).  Control flow (clocking,
/// enables, resets) is shared across lanes; only data is per-lane.
///
/// It speaks the same chunked-sim API as CompiledClockedSim with a single
/// 64-lane chunk (chunks() == 1, the chunk argument is always 0), so the
/// campaign pipeline and MaskedDesCore::encrypt_batch_chunks drive either
/// engine through one code path.
class BatchClockedSim {
public:
    /// Throws std::invalid_argument when timing coupling is requested
    /// (see BatchEventSimulator).
    BatchClockedSim(const Netlist& nl, const DelayModel& dm,
                    ClockConfig clock = {}, CouplingConfig coupling = {},
                    SimOptions options = {});

    [[nodiscard]] unsigned chunks() const noexcept { return 1; }

    void set_enable(netlist::CtrlGroup group, bool enabled) {
        controls_.set_enable(group, enabled);
    }
    void set_reset(netlist::CtrlGroup group, bool asserted) {
        controls_.set_reset(group, asserted);
    }

    /// Schedules a per-lane primary-input change for right after the next
    /// clock edge.  Throws std::invalid_argument for a chunk other than 0.
    void set_input_word(NetId input, unsigned chunk, std::uint64_t values);
    /// Broadcast form for unmasked control inputs (same value in every
    /// lane) -- keeps testbench FSM code lane-agnostic.
    void set_input(NetId input, bool value) {
        set_input_word(input, 0, value ? kAllLanes : 0);
    }

    void step(std::size_t cycles = 1);

    [[nodiscard]] std::uint64_t word(NetId net, unsigned /*chunk*/ = 0) const {
        return engine_.word(net);
    }
    [[nodiscard]] bool value(NetId net, unsigned lane) const {
        return engine_.value(net, lane);
    }

    void set_sink(unsigned /*chunk*/, BatchToggleSink* sink) noexcept {
        engine_.set_sink(sink);
    }
    [[nodiscard]] const BatchWordView* chunk_view(unsigned /*chunk*/) const {
        return &engine_;
    }
    [[nodiscard]] telemetry::SimStats stats() const noexcept {
        return engine_.stats();
    }

    [[nodiscard]] BatchEventSimulator& engine() noexcept { return engine_; }
    [[nodiscard]] const BatchEventSimulator& engine() const noexcept {
        return engine_;
    }

    /// Back to the all-zero state at cycle 0 (keeps the sink; enables and
    /// resets return to defaults, pending inputs drop).
    void restart();

private:
    const Netlist& nl_;
    const DelayModel& dm_;
    ClockConfig clock_;
    BatchEventSimulator engine_;
    ControlGroups controls_;
    struct PendingInput {
        NetId net;
        std::uint64_t values;
    };
    std::vector<PendingInput> pending_;
    struct FlopUpdate {
        NetId net;
        std::uint64_t values;
        std::uint64_t lanes;
    };
    std::vector<FlopUpdate> flop_updates_;  // step()'s per-edge scratch
    std::size_t cycle_ = 0;
};

}  // namespace glitchmask::sim

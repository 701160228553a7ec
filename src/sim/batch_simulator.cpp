#include "sim/batch_simulator.hpp"

#include <bit>
#include <stdexcept>

namespace glitchmask::sim {

namespace {
constexpr std::uint8_t kOutputPin = 0xFF;
constexpr std::uint8_t kSourcePin = 0xFE;
}  // namespace

BatchEventSimulator::BatchEventSimulator(const Netlist& nl, const DelayModel& dm,
                                         CouplingConfig coupling,
                                         SimOptions options)
    : nl_(nl), dm_(dm), options_(options) {
    if (!nl.frozen())
        throw std::runtime_error("BatchEventSimulator: netlist not frozen");
    if (coupling.timing_enabled)
        throw std::invalid_argument(
            "BatchEventSimulator: timing coupling makes delays data-dependent; "
            "lanes cannot share an event schedule -- use the scalar "
            "EventSimulator");
    out_val_.resize(nl.size(), 0);
    pin_val_.resize(nl.size() * 3, 0);
    last_sched_out_.resize(nl.size(), 0);
    pending_.resize(nl.size());
    marks_.resize(nl.size());
    // Same rounding expression as the scalar schedule_output so the
    // windows agree bit-for-bit.
    inertial_window_.resize(nl.size(), 0);
    for (CellId id = 0; id < nl.size(); ++id)
        inertial_window_[id] = static_cast<TimePs>(
            options_.inertial_factor * static_cast<double>(dm_.gate_delay(id)));
    initialize();
}

std::uint64_t BatchEventSimulator::eval_word(CellId id) const noexcept {
    const netlist::Cell& cell = nl_.cell(id);
    return netlist::eval_cell_word(cell.kind, pin_val_[id * 3 + 0],
                                   pin_val_[id * 3 + 1], pin_val_[id * 3 + 2]);
}

void BatchEventSimulator::initialize() {
    queue_ = {};
    now_ = 0;
    seq_ = 0;
    window_epoch_ = 1;
    window_stamp_.assign(nl_.size(), 0);
    window_toggled_.assign(nl_.size(), 0);
    std::fill(out_val_.begin(), out_val_.end(), 0);
    std::fill(pin_val_.begin(), pin_val_.end(), 0);
    for (auto& pending : pending_) pending.clear();
    for (auto& marks : marks_) marks.clear();

    // Constants first (they are sources), then a levelized pass: creation
    // order is topological for combinational cells.
    for (CellId id = 0; id < nl_.size(); ++id) {
        const netlist::Cell& cell = nl_.cell(id);
        std::uint64_t value = 0;
        switch (cell.kind) {
            case CellKind::Input:
            case CellKind::Dff:
            case CellKind::Const0:
                value = 0;
                break;
            case CellKind::Const1:
                value = kAllLanes;
                break;
            default: {
                const unsigned pins = netlist::pin_count(cell.kind);
                std::uint64_t a = 0;
                std::uint64_t b = 0;
                std::uint64_t c = 0;
                if (pins > 0) a = out_val_[cell.in[0]];
                if (pins > 1) b = out_val_[cell.in[1]];
                if (pins > 2) c = out_val_[cell.in[2]];
                value = netlist::eval_cell_word(cell.kind, a, b, c);
                break;
            }
        }
        out_val_[id] = value;
        last_sched_out_[id] = value;
    }
    // Make the pin view consistent with the settled output values.
    for (CellId id = 0; id < nl_.size(); ++id) {
        const netlist::Cell& cell = nl_.cell(id);
        const unsigned pins = netlist::pin_count(cell.kind);
        for (unsigned p = 0; p < pins; ++p)
            pin_val_[id * 3 + p] = out_val_[cell.in[p]];
    }
}

void BatchEventSimulator::drive(NetId source, std::uint64_t values,
                                std::uint64_t lanes, TimePs time) {
    if (lanes == 0) return;
    queue_.push(Event{time, seq_++, source, kSourcePin, values, lanes});
}

void BatchEventSimulator::schedule_group(CellId cell, std::uint64_t value,
                                         std::uint64_t lanes, TimePs when) {
    // Inertial pulse filtering, per lane: a lane's previous (still
    // pending) opposite-value commit closer than the inertial window forms
    // a sub-propagation-delay pulse; both edges annihilate.  A lane's
    // "previous pending commit" is the newest pending entry whose mask
    // contains it, so scan from the back and peel lanes off as their
    // newest entry is found.
    std::uint64_t cancelled = 0;
    if (options_.inertial_filtering) {
        std::uint64_t to_check = lanes;
        auto& pending = pending_[cell];
        for (auto it = pending.rbegin(); it != pending.rend() && to_check != 0;
             ++it) {
            const std::uint64_t m = to_check & it->lanes;
            if (m == 0) continue;
            if (when >= it->time && when - it->time < inertial_window_[cell]) {
                it->lanes &= ~m;
                cancelled |= m;
            }
            to_check &= ~m;
        }
        inertial_cancels_ +=
            static_cast<std::uint64_t>(std::popcount(cancelled));
    }

    // The scalar simulator records the scheduled value/time even when the
    // pulse cancels -- mirror that for every lane of the group.
    last_sched_out_[cell] = (last_sched_out_[cell] & ~lanes) | (value & lanes);
    auto& marks = marks_[cell];
    for (SchedMark& mark : marks) mark.lanes &= ~lanes;
    bool merged = false;
    for (SchedMark& mark : marks) {
        if (mark.when == when) {
            mark.lanes |= lanes;
            merged = true;
            break;
        }
    }
    if (!merged) marks.push_back(SchedMark{when, lanes});

    const std::uint64_t survivors = lanes & ~cancelled;
    if (survivors == 0) return;
    pending_[cell].push_back(Pending{when, seq_, survivors});
    queue_.push(Event{when, seq_++, cell, kOutputPin, value, survivors});
}

void BatchEventSimulator::schedule_output(CellId cell, std::uint64_t value,
                                          std::uint64_t changed, TimePs at) {
    // Per-lane monotonic commits: lane l's commit time is bumped past its
    // last scheduled time, exactly like the scalar guard.  `at` is
    // non-decreasing per cell (event times are non-decreasing and the gate
    // delay is static), so marks older than `at` can never bump again.
    auto& marks = marks_[cell];
    std::erase_if(marks, [at](const SchedMark& mark) {
        return mark.when < at || mark.lanes == 0;
    });

    std::uint64_t covered = 0;
    for (const SchedMark& mark : marks) covered |= mark.lanes;
    covered &= changed;

    // Lanes without a recent mark commit at `at` unbumped.  (The scalar
    // guard `when <= last_sched_time` with last_sched_time still 0 only
    // fires at at == 0, which needs a zero-delay gate hit at time 0.)
    const std::uint64_t unmarked = changed & ~covered;

    if (covered == 0) {
        schedule_group(cell, value, unmarked, at == 0 ? 1 : at);
        return;
    }

    // Same-timestamp burst: group the covered lanes by their newest mark
    // and bump each group one past it.  Groups are computed before any is
    // applied -- schedule_group edits the mark list.
    struct Group {
        TimePs when;
        std::uint64_t lanes;
    };
    Group groups[8];
    std::size_t n_groups = 0;
    std::vector<Group> spill;  // marks rarely exceed a handful of entries
    std::uint64_t left = covered;
    while (left != 0) {
        TimePs newest = 0;
        for (const SchedMark& mark : marks)
            if ((mark.lanes & left) != 0 && mark.when >= newest)
                newest = mark.when;
        std::uint64_t lanes_at_newest = 0;
        for (const SchedMark& mark : marks)
            if (mark.when == newest) lanes_at_newest |= mark.lanes & left;
        if (n_groups < 8)
            groups[n_groups++] = Group{newest + 1, lanes_at_newest};
        else
            spill.push_back(Group{newest + 1, lanes_at_newest});
        left &= ~lanes_at_newest;
    }
    for (std::size_t i = 0; i < n_groups; ++i)
        schedule_group(cell, value, groups[i].lanes, groups[i].when);
    for (const Group& group : spill)
        schedule_group(cell, value, group.lanes, group.when);
    if (unmarked != 0) schedule_group(cell, value, unmarked, at == 0 ? 1 : at);
}

void BatchEventSimulator::commit_output(const Event& ev) {
    std::uint64_t lanes = ev.lanes;
    if (ev.pin == kOutputPin) {
        // The pending entry carries the post-cancellation lane set; a
        // fully-cancelled entry commits nothing but must still be removed.
        auto& pending = pending_[ev.cell];
        lanes = 0;
        for (auto it = pending.begin(); it != pending.end(); ++it) {
            if (it->seq == ev.seq) {
                lanes = it->lanes;
                pending.erase(it);
                break;
            }
        }
    }
    const std::uint64_t toggled = lanes & (out_val_[ev.cell] ^ ev.value);
    if (toggled == 0) return;
    // Telemetry, per lane: a lane's 2nd+ toggle of this net within the
    // current activity window is a transient (glitch).  Toggle totals
    // match the scalar engine exactly (same committed transitions); the
    // glitch/cancel split reflects this engine's shared evaluation
    // schedule and is compared across runs of the same engine only.
    toggles_ += static_cast<std::uint64_t>(std::popcount(toggled));
    if (window_stamp_[ev.cell] == window_epoch_) {
        glitches_ += static_cast<std::uint64_t>(
            std::popcount(toggled & window_toggled_[ev.cell]));
        window_toggled_[ev.cell] |= toggled;
    } else {
        window_stamp_[ev.cell] = window_epoch_;
        window_toggled_[ev.cell] = toggled;
    }
    out_val_[ev.cell] = (out_val_[ev.cell] & ~toggled) | (ev.value & toggled);
    if (sink_ != nullptr)
        sink_->on_toggle(ev.cell, ev.time, out_val_[ev.cell], toggled);
    for (const netlist::Sink& sink : nl_.fanout(ev.cell)) {
        const TimePs at = ev.time + dm_.wire_delay(sink.cell, sink.pin);
        queue_.push(Event{at, seq_++, sink.cell, sink.pin, out_val_[ev.cell],
                          toggled});
    }
}

void BatchEventSimulator::update_pin(const Event& ev) {
    std::uint64_t& slot = pin_val_[ev.cell * 3 + ev.pin];
    slot = (slot & ~ev.lanes) | (ev.value & ev.lanes);
    const netlist::Cell& cell = nl_.cell(ev.cell);
    if (cell.kind == CellKind::Dff) return;  // D sampled at clock edges only

    // Lanes outside ev.lanes provably evaluate to their last scheduled
    // value (their pins did not change since their last evaluation), so
    // `changed` is automatically confined to this event's lanes.
    const std::uint64_t value = eval_word(ev.cell);
    const std::uint64_t changed = value ^ last_sched_out_[ev.cell];
    if (changed == 0) return;
    schedule_output(ev.cell, value, changed,
                    ev.time + dm_.gate_delay(ev.cell));
}

void BatchEventSimulator::run_until(TimePs t_end) {
    while (!queue_.empty() && queue_.top().time < t_end) {
        if (queue_.size() > queue_peak_) queue_peak_ = queue_.size();
        const Event ev = queue_.top();
        queue_.pop();
        now_ = ev.time;
        ++processed_;
        if (ev.pin == kOutputPin || ev.pin == kSourcePin)
            commit_output(ev);
        else
            update_pin(ev);
    }
    now_ = t_end;
}

TimePs BatchEventSimulator::run_to_quiescence() {
    while (!queue_.empty()) {
        if (queue_.size() > queue_peak_) queue_peak_ = queue_.size();
        const Event ev = queue_.top();
        queue_.pop();
        now_ = ev.time;
        ++processed_;
        if (ev.pin == kOutputPin || ev.pin == kSourcePin)
            commit_output(ev);
        else
            update_pin(ev);
    }
    return now_;
}

// ----- BatchClockedSim ---------------------------------------------------

BatchClockedSim::BatchClockedSim(const Netlist& nl, const DelayModel& dm,
                                 ClockConfig clock, CouplingConfig coupling,
                                 SimOptions options)
    : nl_(nl),
      dm_(dm),
      clock_(clock),
      engine_(nl, dm, coupling, options),
      controls_(nl.max_ctrl_group()) {}

void BatchClockedSim::set_input_word(NetId input, unsigned chunk,
                                     std::uint64_t values) {
    if (nl_.cell(input).kind != netlist::CellKind::Input)
        throw std::runtime_error(
            "BatchClockedSim::set_input_word: not a primary input");
    if (chunk != 0)
        throw std::invalid_argument(
            "BatchClockedSim::set_input_word: chunk out of range");
    pending_.push_back({input, values});
}

void BatchClockedSim::step(std::size_t cycles) {
    for (std::size_t n = 0; n < cycles; ++n) {
        const TimePs edge = static_cast<TimePs>(cycle_) * clock_.period_ps;
        engine_.begin_activity_window();

        // 1. Sample the flops with the pin view at the edge.  The drive
        // mask carries exactly the lanes whose Q changes, so each lane
        // sees the same source events as its scalar run.
        flop_updates_.clear();
        for (const CellId flop : nl_.flops()) {
            const netlist::Cell& cell = nl_.cell(flop);
            std::uint64_t q = engine_.word(flop);
            if (cell.reset != netlist::kAlwaysEnabled &&
                controls_.in_reset(cell.reset)) {
                q = 0;
            } else if (controls_.enabled(cell.enable)) {
                q = engine_.pin_word(flop, 0);
            }
            const std::uint64_t changed = q ^ engine_.word(flop);
            if (changed != 0) flop_updates_.push_back({flop, q, changed});
        }

        // 2. Launch new Q values and pending input changes after clk-to-Q.
        const TimePs launch = edge + dm_.clk_to_q();
        for (const FlopUpdate& update : flop_updates_)
            engine_.drive(update.net, update.values, update.lanes, launch);
        for (const PendingInput& input : pending_)
            engine_.drive(input.net, input.values, kAllLanes, launch);
        pending_.clear();

        // 3. Settle until just before the next edge.
        engine_.run_until(edge + clock_.period_ps);
        ++cycle_;
    }
}

void BatchClockedSim::restart() {
    engine_.initialize();
    controls_.clear();
    pending_.clear();
    cycle_ = 0;
}

}  // namespace glitchmask::sim

// Exact-equivalence harness for the bitsliced batch simulator: every
// masked-AND gadget in the zoo runs 64 random-stimulus traces through the
// scalar EventSimulator (one run per lane) and once through the 64-lane
// BatchEventSimulator, and the per-lane committed toggle streams, power
// traces, toggle counts and settle times must match bit-for-bit -- with
// inertial filtering on and off, and with energy coupling on where the
// gadget has coupled pairs.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/circuits.hpp"
#include "core/gadgets.hpp"
#include "eval/campaign.hpp"
#include "power/batch_power.hpp"
#include "power/power_model.hpp"
#include "sim/batch_simulator.hpp"
#include "sim/clocked.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace glitchmask {
namespace {

using core::SharedNet;
using netlist::NetId;
using sim::TimePs;

struct ToggleRec {
    NetId net;
    TimePs time;
    bool value;

    bool operator==(const ToggleRec&) const = default;
};

/// Records the scalar commit stream while forwarding to a power recorder.
class ScalarTee final : public sim::ToggleSink {
public:
    explicit ScalarTee(sim::ToggleSink* next = nullptr) : next_(next) {}
    void on_toggle(NetId net, TimePs time, bool value) override {
        records.push_back({net, time, value});
        if (next_ != nullptr) next_->on_toggle(net, time, value);
    }
    std::vector<ToggleRec> records;

private:
    sim::ToggleSink* next_;
};

/// Records the batch commit stream while forwarding to a batch recorder.
class BatchTee final : public sim::BatchToggleSink {
public:
    explicit BatchTee(sim::BatchToggleSink* next = nullptr) : next_(next) {}
    void on_toggle(NetId net, TimePs time, std::uint64_t values,
                   std::uint64_t toggled) override {
        records.push_back({net, time, values, toggled});
        if (next_ != nullptr) next_->on_toggle(net, time, values, toggled);
    }

    /// The batch stream restricted to one lane, in commit order.
    [[nodiscard]] std::vector<ToggleRec> lane(unsigned l) const {
        std::vector<ToggleRec> out;
        for (const auto& rec : records)
            if (((rec.toggled >> l) & 1u) != 0)
                out.push_back({rec.net, rec.time, ((rec.values >> l) & 1u) != 0});
        return out;
    }

    struct Rec {
        NetId net;
        TimePs time;
        std::uint64_t values;
        std::uint64_t toggled;
    };
    std::vector<Rec> records;

private:
    sim::BatchToggleSink* next_;
};

enum class Kind { Naive, Ff, Pd, Trichina, DomIndep, DomDep };

constexpr Kind kZoo[] = {Kind::Naive,    Kind::Ff,       Kind::Pd,
                         Kind::Trichina, Kind::DomIndep, Kind::DomDep};

const char* kind_name(Kind kind) {
    switch (kind) {
        case Kind::Naive: return "naive";
        case Kind::Ff: return "ff";
        case Kind::Pd: return "pd";
        case Kind::Trichina: return "trichina";
        case Kind::DomIndep: return "dom_indep";
        case Kind::DomDep: return "dom_dep";
    }
    return "?";
}

unsigned fresh_bits(Kind kind) {
    switch (kind) {
        case Kind::Trichina:
        case Kind::DomIndep: return 1;
        case Kind::DomDep: return 3;
        default: return 0;
    }
}

struct Harness {
    core::Netlist nl;
    SharedNet x_in{}, y_in{};
    std::vector<NetId> rand_in;
};

/// Same structure as the gadget-zoo bench: registered shared inputs and
/// registered fresh bits feeding `replicas` gadget instances.
Harness build(Kind kind, unsigned replicas) {
    Harness h;
    h.x_in = core::shared_input(h.nl, "x");
    h.y_in = core::shared_input(h.nl, "y");
    for (unsigned i = 0; i < fresh_bits(kind); ++i)
        h.rand_in.push_back(h.nl.input("r" + std::to_string(i)));
    const SharedNet x = core::reg_shares(h.nl, h.x_in, 1);
    const SharedNet y = core::reg_shares(h.nl, h.y_in, 1);
    std::vector<NetId> rand_regs;
    for (const NetId r : h.rand_in) rand_regs.push_back(h.nl.dff(r, 1));

    for (unsigned k = 0; k < replicas; ++k) {
        const std::string name = "g" + std::to_string(k);
        switch (kind) {
            case Kind::Naive:
                (void)core::secand2(h.nl, x, y, name);
                break;
            case Kind::Ff:
                (void)core::secand2_ff(h.nl, x, y, 2, 3, name);
                break;
            case Kind::Pd:
                (void)core::secand2_pd(h.nl, x, y, {10, true}, name);
                break;
            case Kind::Trichina:
                (void)core::trichina_and(h.nl, x, y, rand_regs[0], name);
                break;
            case Kind::DomIndep:
                (void)core::dom_and_indep(h.nl, x, y, rand_regs[0], 2, name);
                break;
            case Kind::DomDep:
                (void)core::dom_and_dep(h.nl, x, y, rand_regs[0], rand_regs[1],
                                        rand_regs[2], 2, name);
                break;
        }
    }
    h.nl.freeze();
    return h;
}

/// Combinational-only variant for raw-engine tests: the gadgets read the
/// primary inputs directly (no registration, no clock), so input pulses
/// reach the gadget logic.  Only register-free gadgets qualify.
Harness build_comb(Kind kind, unsigned replicas) {
    Harness h;
    h.x_in = core::shared_input(h.nl, "x");
    h.y_in = core::shared_input(h.nl, "y");
    for (unsigned i = 0; i < fresh_bits(kind); ++i)
        h.rand_in.push_back(h.nl.input("r" + std::to_string(i)));
    for (unsigned k = 0; k < replicas; ++k) {
        const std::string name = "g" + std::to_string(k);
        switch (kind) {
            case Kind::Naive:
                (void)core::secand2(h.nl, h.x_in, h.y_in, name);
                break;
            case Kind::Pd:
                (void)core::secand2_pd(h.nl, h.x_in, h.y_in, {10, true}, name);
                break;
            case Kind::Trichina:
                (void)core::trichina_and(h.nl, h.x_in, h.y_in, h.rand_in[0],
                                         name);
                break;
            default:
                throw std::logic_error("gadget has registers");
        }
    }
    h.nl.freeze();
    return h;
}

std::vector<NetId> all_inputs(const Harness& h) {
    std::vector<NetId> nets{h.x_in.s0, h.x_in.s1, h.y_in.s0, h.y_in.s1};
    nets.insert(nets.end(), h.rand_in.begin(), h.rand_in.end());
    return nets;
}

/// The zoo's drive schedule, against either clocked driver.
template <typename Sim>
void run_schedule(Sim& sim, bool has_stage2) {
    sim.step();
    sim.set_enable(1, true);
    sim.step();
    sim.set_enable(1, false);
    if (has_stage2) sim.set_enable(2, true);
    sim.step();
    if (has_stage2) sim.set_enable(2, false);
    sim.step();
    sim.step();
}

constexpr std::size_t kCycles = 5;
constexpr TimePs kPeriod = 90000;

void expect_clocked_equivalence(Kind kind, bool inertial, double epsilon) {
    SCOPED_TRACE(std::string(kind_name(kind)) +
                 (inertial ? " inertial" : " transport") +
                 (epsilon != 0.0 ? " coupled" : ""));
    Harness h = build(kind, 4);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    const sim::ClockConfig clock{kPeriod};
    const sim::SimOptions options{inertial, 1.0};
    const power::PowerConfig power_config{.coupling_epsilon = epsilon,
                                          .bin_ps = kPeriod};
    const bool has_stage2 = h.nl.max_ctrl_group() >= 2;
    const std::vector<NetId> inputs = all_inputs(h);

    // Per-lane random stimulus.
    Xoshiro256 rng(1234 + static_cast<std::uint64_t>(kind));
    std::vector<std::vector<bool>> stim(sim::kBatchLanes);
    for (auto& lane_bits : stim)
        for (std::size_t i = 0; i < inputs.size(); ++i)
            lane_bits.push_back(rng.bit());

    // 64 scalar reference runs.
    std::vector<std::vector<ToggleRec>> scalar_stream(sim::kBatchLanes);
    std::vector<std::vector<double>> scalar_trace(sim::kBatchLanes);
    std::vector<std::uint64_t> scalar_toggles(sim::kBatchLanes);
    for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
        sim::ClockedSim sim(h.nl, dm, clock, {}, options);
        power::PowerRecorder recorder(h.nl, power_config);
        recorder.attach(&sim.engine());
        ScalarTee tee(&recorder);
        sim.engine().set_sink(&tee);
        recorder.begin_trace(kCycles);
        for (std::size_t i = 0; i < inputs.size(); ++i)
            sim.set_input(inputs[i], stim[lane][i]);
        run_schedule(sim, has_stage2);
        scalar_stream[lane] = std::move(tee.records);
        scalar_trace[lane] = recorder.trace();
        scalar_toggles[lane] = recorder.trace_toggles();
    }

    // One batch run.
    sim::BatchClockedSim batch(h.nl, dm, clock, {}, options);
    power::BatchPowerRecorder recorder(h.nl, power_config);
    recorder.attach(&batch.engine());
    BatchTee tee(&recorder);
    batch.engine().set_sink(&tee);
    recorder.begin_trace(kCycles);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        std::uint64_t word = 0;
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane)
            if (stim[lane][i]) word |= std::uint64_t{1} << lane;
        batch.set_input_word(inputs[i], 0, word);
    }
    run_schedule(batch, has_stage2);

    std::vector<double> lane_trace;
    for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
        SCOPED_TRACE("lane " + std::to_string(lane));
        EXPECT_EQ(tee.lane(lane), scalar_stream[lane]);
        EXPECT_EQ(recorder.lane_toggles(lane), scalar_toggles[lane]);
        recorder.lane_trace_into(lane, lane_trace);
        ASSERT_EQ(lane_trace.size(), scalar_trace[lane].size());
        for (std::size_t bin = 0; bin < lane_trace.size(); ++bin)
            EXPECT_EQ(lane_trace[bin], scalar_trace[lane][bin]) << "bin " << bin;
    }
}

TEST(BatchSim, ZooEquivalenceInertial) {
    for (const Kind kind : kZoo) expect_clocked_equivalence(kind, true, 0.0);
}

TEST(BatchSim, ZooEquivalenceTransportDelay) {
    for (const Kind kind : kZoo) expect_clocked_equivalence(kind, false, 0.0);
}

TEST(BatchSim, EnergyCouplingEquivalence) {
    // secAND2-PD registers its delay chains as coupled pairs; the Miller
    // energy term must pick the per-lane neighbour level.
    expect_clocked_equivalence(Kind::Pd, true, 0.25);
}

TEST(BatchSim, CombinationalQuiescenceEquivalence) {
    // Raw engine drive/settle on the combinational gadgets, two input
    // waves per lane: per-lane streams, final values and the global
    // settle time (max over lanes) must match the scalar runs.
    for (const Kind kind : {Kind::Naive, Kind::Pd, Kind::Trichina}) {
        SCOPED_TRACE(kind_name(kind));
        Harness h = build_comb(kind, 4);
        const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
        const std::vector<NetId> inputs = all_inputs(h);
        constexpr TimePs kWave2 = 40000;

        Xoshiro256 rng(99 + static_cast<std::uint64_t>(kind));
        std::vector<std::vector<bool>> wave1(sim::kBatchLanes);
        std::vector<std::vector<bool>> wave2(sim::kBatchLanes);
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane)
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                wave1[lane].push_back(rng.bit());
                wave2[lane].push_back(rng.bit());
            }

        std::vector<std::vector<ToggleRec>> scalar_stream(sim::kBatchLanes);
        TimePs max_settle = 0;
        std::vector<std::vector<bool>> finals(sim::kBatchLanes);
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
            sim::EventSimulator engine(h.nl, dm);
            ScalarTee tee;
            engine.set_sink(&tee);
            for (std::size_t i = 0; i < inputs.size(); ++i)
                engine.drive(inputs[i], wave1[lane][i], 0);
            for (std::size_t i = 0; i < inputs.size(); ++i)
                engine.drive(inputs[i], wave2[lane][i], kWave2);
            const TimePs settle = engine.run_to_quiescence();
            if (settle > max_settle) max_settle = settle;
            scalar_stream[lane] = std::move(tee.records);
            for (NetId net = 0; net < h.nl.size(); ++net)
                finals[lane].push_back(engine.value(net));
        }

        sim::BatchEventSimulator batch(h.nl, dm);
        BatchTee tee;
        batch.set_sink(&tee);
        auto word_of = [&](const std::vector<std::vector<bool>>& wave,
                           std::size_t i) {
            std::uint64_t word = 0;
            for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane)
                if (wave[lane][i]) word |= std::uint64_t{1} << lane;
            return word;
        };
        for (std::size_t i = 0; i < inputs.size(); ++i)
            batch.drive(inputs[i], word_of(wave1, i), sim::kAllLanes, 0);
        for (std::size_t i = 0; i < inputs.size(); ++i)
            batch.drive(inputs[i], word_of(wave2, i), sim::kAllLanes, kWave2);
        EXPECT_EQ(batch.run_to_quiescence(), max_settle);

        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
            SCOPED_TRACE("lane " + std::to_string(lane));
            EXPECT_EQ(tee.lane(lane), scalar_stream[lane]);
            for (NetId net = 0; net < h.nl.size(); ++net)
                ASSERT_EQ(batch.value(net, lane), finals[lane][net])
                    << "net " << net;
        }
    }
}

TEST(BatchSim, PerLanePulseCancellationEquivalence) {
    // Per-lane input pulses of widths from well under to well over the
    // gate inertial windows: some lanes' pulses get swallowed while their
    // neighbours' propagate, so pending-commit cancellation masks genuinely
    // differ per lane.  Equivalence must hold, and transport-delay mode
    // (no filtering) must commit strictly more toggles -- guarding the
    // equivalence suite against vacuously never firing the inertial path.
    Harness h = build_comb(Kind::Naive, 4);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    const std::vector<NetId> inputs = all_inputs(h);

    // Lane l: all inputs rise at 0, fall again after 40 + 55*l ps.
    auto fall_time = [](unsigned lane) {
        return static_cast<TimePs>(40 + 55 * lane);
    };

    std::uint64_t toggles_by_mode[2] = {0, 0};
    for (const bool inertial : {true, false}) {
        std::vector<std::vector<ToggleRec>> scalar_stream(sim::kBatchLanes);
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
            sim::EventSimulator engine(h.nl, dm, {},
                                       sim::SimOptions{inertial, 1.0});
            ScalarTee tee;
            engine.set_sink(&tee);
            for (const NetId input : inputs) engine.drive(input, true, 0);
            for (const NetId input : inputs)
                engine.drive(input, false, fall_time(lane));
            engine.run_to_quiescence();
            scalar_stream[lane] = std::move(tee.records);
        }

        sim::BatchEventSimulator batch(h.nl, dm, {},
                                       sim::SimOptions{inertial, 1.0});
        BatchTee tee;
        batch.set_sink(&tee);
        for (const NetId input : inputs)
            batch.drive(input, sim::kAllLanes, sim::kAllLanes, 0);
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane)
            for (const NetId input : inputs)
                batch.drive(input, 0, std::uint64_t{1} << lane,
                            fall_time(lane));
        batch.run_to_quiescence();

        std::size_t total = 0;
        for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane) {
            SCOPED_TRACE((inertial ? "inertial lane " : "transport lane ") +
                         std::to_string(lane));
            EXPECT_EQ(tee.lane(lane), scalar_stream[lane]);
            total += scalar_stream[lane].size();
        }
        toggles_by_mode[inertial ? 0 : 1] = total;
    }
    EXPECT_GT(toggles_by_mode[1], toggles_by_mode[0]);
}

TEST(BatchSim, RejectsTimingCoupling) {
    Harness h = build(Kind::Pd, 1);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    sim::CouplingConfig coupling;
    coupling.timing_enabled = true;
    EXPECT_THROW(sim::BatchEventSimulator(h.nl, dm, coupling),
                 std::invalid_argument);
    EXPECT_THROW(sim::BatchClockedSim(h.nl, dm, {}, coupling),
                 std::invalid_argument);
}

TEST(BatchSim, BroadcastInputMatchesScalarFsm) {
    // set_input(bool) must behave as the same control bit in every lane.
    Harness h = build(Kind::Ff, 1);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    sim::BatchClockedSim batch(h.nl, dm, sim::ClockConfig{kPeriod});
    batch.set_input(h.x_in.s0, true);
    batch.step();
    batch.step();
    EXPECT_EQ(batch.word(h.x_in.s0), sim::kAllLanes);
    batch.set_input(h.x_in.s0, false);
    batch.step();
    batch.step();
    EXPECT_EQ(batch.word(h.x_in.s0), 0u);
}

TEST(BatchSim, SequenceCampaignBitIdentical) {
    // Golden-campaign criterion: the full TVLA statistics of a sequence
    // experiment must be bit-identical (exact double equality) between the
    // scalar and the 64-lane path, including a partial final lane group
    // (200 % 64 != 0) and a multi-worker pool.
    eval::SequenceExperimentConfig config;
    config.replicas = 4;
    config.traces = 200;
    config.noise_sigma = 1.0;
    config.seed = 77;
    config.workers = 2;
    config.block_size = 64;
    config.max_test_order = 2;
    const core::InputSequence sequence = core::all_input_sequences().front();

    config.lanes = 1;
    const eval::SequenceLeakResult scalar =
        eval::run_sequence_experiment(sequence, config);
    config.lanes = 64;
    const eval::SequenceLeakResult batch =
        eval::run_sequence_experiment(sequence, config);

    EXPECT_EQ(scalar.max_abs_t1, batch.max_abs_t1);
    EXPECT_EQ(scalar.max_abs_t2, batch.max_abs_t2);
    EXPECT_EQ(scalar.argmax_cycle, batch.argmax_cycle);
    EXPECT_EQ(scalar.leaks_first_order, batch.leaks_first_order);
    EXPECT_GT(scalar.max_abs_t1, 0.0);  // not vacuous
}

}  // namespace
}  // namespace glitchmask

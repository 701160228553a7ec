// Exact-equivalence harness for the compiled-netlist replay backend.
//
// The contract is the same as batch_sim_test.cpp's, one level wider: every
// lane of a CompiledClockedSim pass (here 128 lanes = 2 chunks, so the
// multi-chunk data path is exercised) must commit exactly the toggle
// stream, power trace and toggle count of a scalar EventSimulator run of
// that lane's stimulus -- with inertial filtering on and off, and with
// energy coupling on where the gadget has coupled pairs.  On top of the
// engine-level checks, the campaign drivers must be bit-identical across
// backend={event,compiled} (TVLA t-curves, attribution rankings), a
// checkpoint written under one backend must resume under the other to
// the uninterrupted result, the time-slot ring must replay events that
// wait past its horizon in (time, seq) order, and the process-wide
// program cache must share programs exactly when (netlist, DelayConfig,
// SimOptions) match.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/circuits.hpp"
#include "core/gadgets.hpp"
#include "des/masked_des.hpp"
#include "eval/des_experiments.hpp"
#include "eval/gadget_tvla.hpp"
#include "eval/lane_backend.hpp"
#include "power/batch_power.hpp"
#include "power/power_model.hpp"
#include "sim/batch_simulator.hpp"
#include "sim/clocked.hpp"
#include "sim/compiled_simulator.hpp"
#include "sim/simulator.hpp"
#include "support/atomic_file.hpp"
#include "support/cancel.hpp"
#include "support/rng.hpp"

namespace glitchmask {
namespace {

using core::SharedNet;
using netlist::NetId;
using sim::TimePs;

constexpr unsigned kLanes = 128;  // 2 chunks: cross-chunk wiring in play
constexpr unsigned kChunks = kLanes / 64u;

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

/// Records one chunk's commit stream while forwarding to its recorder.
class ChunkTee final : public sim::BatchToggleSink {
public:
    explicit ChunkTee(sim::BatchToggleSink* next = nullptr) : next_(next) {}
    void on_toggle(NetId net, TimePs time, std::uint64_t values,
                   std::uint64_t toggled) override {
        records.push_back({net, time, values, toggled});
        if (next_ != nullptr) next_->on_toggle(net, time, values, toggled);
    }

    /// The chunk stream restricted to one lane (0..63), in commit order.
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

unsigned fresh_bits(eval::GadgetKind kind) {
    return eval::gadget_fresh_bits(kind);
}

struct Harness {
    core::Netlist nl;
    SharedNet x_in{}, y_in{};
    std::vector<NetId> rand_in;
};

/// Same structure as the gadget-zoo bench: registered shared inputs and
/// registered fresh bits feeding `replicas` gadget instances.
Harness build(eval::GadgetKind kind, unsigned replicas) {
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
            case eval::GadgetKind::Naive:
                (void)core::secand2(h.nl, x, y, name);
                break;
            case eval::GadgetKind::Ff:
                (void)core::secand2_ff(h.nl, x, y, 2, 3, name);
                break;
            case eval::GadgetKind::Pd:
                (void)core::secand2_pd(h.nl, x, y, {10, true}, name);
                break;
            case eval::GadgetKind::Trichina:
                (void)core::trichina_and(h.nl, x, y, rand_regs[0], name);
                break;
            case eval::GadgetKind::DomIndep:
                (void)core::dom_and_indep(h.nl, x, y, rand_regs[0], 2, name);
                break;
            case eval::GadgetKind::DomDep:
                (void)core::dom_and_dep(h.nl, x, y, rand_regs[0], rand_regs[1],
                                        rand_regs[2], 2, name);
                break;
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

void expect_compiled_equivalence(eval::GadgetKind kind, bool inertial,
                                 double epsilon) {
    SCOPED_TRACE(std::string(eval::gadget_name(kind)) +
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
    Xoshiro256 rng(4321 + static_cast<std::uint64_t>(kind));
    std::vector<std::vector<bool>> stim(kLanes);
    for (auto& lane_bits : stim)
        for (std::size_t i = 0; i < inputs.size(); ++i)
            lane_bits.push_back(rng.bit());

    // kLanes scalar reference runs.
    std::vector<std::vector<ToggleRec>> scalar_stream(kLanes);
    std::vector<std::vector<double>> scalar_trace(kLanes);
    std::vector<std::uint64_t> scalar_toggles(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
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

    // One compiled 128-lane pass (per-chunk sinks, like the drivers).
    sim::CompiledClockedSim wide(h.nl, dm, kLanes, clock, {}, options);
    std::vector<power::BatchPowerRecorder> recorders;
    std::vector<ChunkTee> tees(kChunks);
    recorders.reserve(kChunks);
    for (unsigned c = 0; c < kChunks; ++c) {
        recorders.emplace_back(h.nl, power_config);
        recorders.back().attach(wide.chunk_view(c));
    }
    for (unsigned c = 0; c < kChunks; ++c) {
        tees[c] = ChunkTee(&recorders[c]);
        wide.set_sink(c, &tees[c]);
        recorders[c].begin_trace(kCycles);
    }
    for (std::size_t i = 0; i < inputs.size(); ++i)
        for (unsigned c = 0; c < kChunks; ++c) {
            std::uint64_t word = 0;
            for (unsigned l = 0; l < 64; ++l)
                if (stim[c * 64u + l][i]) word |= std::uint64_t{1} << l;
            wide.set_input_word(inputs[i], c, word);
        }
    run_schedule(wide, has_stage2);

    std::vector<double> lane_trace;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        SCOPED_TRACE("lane " + std::to_string(lane));
        const unsigned c = lane / 64u;
        const unsigned l = lane % 64u;
        EXPECT_EQ(tees[c].lane(l), scalar_stream[lane]);
        EXPECT_EQ(recorders[c].lane_toggles(l), scalar_toggles[lane]);
        recorders[c].lane_trace_into(l, lane_trace);
        ASSERT_EQ(lane_trace.size(), scalar_trace[lane].size());
        for (std::size_t bin = 0; bin < lane_trace.size(); ++bin)
            EXPECT_EQ(lane_trace[bin], scalar_trace[lane][bin]) << "bin " << bin;
    }
}

TEST(CompiledSim, ZooEquivalenceInertial) {
    for (const eval::GadgetKind kind : eval::kAllGadgets)
        expect_compiled_equivalence(kind, true, 0.0);
}

TEST(CompiledSim, ZooEquivalenceTransportDelay) {
    for (const eval::GadgetKind kind : eval::kAllGadgets)
        expect_compiled_equivalence(kind, false, 0.0);
}

TEST(CompiledSim, EnergyCouplingEquivalence) {
    // secAND2-PD registers its delay chains as coupled pairs; the Miller
    // energy term must pick the per-lane neighbour level from the
    // compiled engine's chunk view.
    expect_compiled_equivalence(eval::GadgetKind::Pd, true, 0.25);
}

TEST(CompiledSim, EventsPastTheRingHorizonReplayInSeqOrder) {
    // Drives parked past the ring horizon wait in the overflow heap.  Once
    // time nears them, later drives land directly in the same time slots;
    // the parked events must migrate in front of those (smaller seq), so
    // every lane still commits the scalar engine's (time, seq) order.
    // Each source is driven twice at the same instant with independent
    // values, so a wrong order changes the committed waveform.
    Harness h = build(eval::GadgetKind::Pd, 2);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    const auto program = sim::compile_netlist(h.nl, dm);
    // Far enough that the early drives settle long before `far` comes
    // within one ring of the current time.
    const TimePs far = 64 * static_cast<TimePs>(program->ring_size);

    std::vector<NetId> sources(h.nl.inputs().begin(), h.nl.inputs().end());
    sources.insert(sources.end(), h.nl.flops().begin(), h.nl.flops().end());
    struct Drive {
        NetId net;
        TimePs time;
        std::uint64_t words[kChunks];
    };
    Xoshiro256 rng(99);
    const auto drive_at = [&rng](NetId net, TimePs time) {
        Drive d{net, time, {}};
        for (auto& word : d.words) word = rng();
        return d;
    };
    std::vector<Drive> early, parked, late;
    for (std::size_t k = 0; k < sources.size(); ++k) {
        early.push_back(drive_at(sources[k], 50 + 13 * k));
        if (k % 2 == 0) parked.push_back(drive_at(sources[k], far + 11 * k));
    }
    for (std::size_t k = 0; k < sources.size(); ++k)
        late.push_back(drive_at(sources[k], far + 11 * k));
    const TimePs pause = far - 200;  // every parked event still past it

    const auto run_scalar = [&](unsigned lane) {
        sim::EventSimulator scalar(h.nl, dm);
        ScalarTee tee;
        scalar.set_sink(&tee);
        scalar.initialize();
        const auto apply = [&](const std::vector<Drive>& drives) {
            for (const Drive& d : drives)
                scalar.drive(d.net, ((d.words[lane / 64] >> (lane % 64)) & 1u) != 0,
                             d.time);
        };
        apply(early);
        apply(parked);
        scalar.run_until(pause);
        apply(late);
        scalar.run_to_quiescence();
        return tee.records;
    };

    auto engine = sim::make_compiled_engine(program, kChunks);
    std::vector<ChunkTee> tees(kChunks);
    for (unsigned c = 0; c < kChunks; ++c) engine->set_sink(c, &tees[c]);
    engine->initialize();
    const auto apply = [&](const std::vector<Drive>& drives) {
        for (const Drive& d : drives)
            for (unsigned c = 0; c < kChunks; ++c)
                engine->drive_chunk(d.net, c, d.words[c], sim::kAllLanes, d.time);
    };
    apply(early);
    apply(parked);
    engine->run_until(pause);
    apply(late);
    engine->run_to_quiescence();

    for (unsigned lane = 0; lane < kLanes; ++lane) {
        SCOPED_TRACE("lane " + std::to_string(lane));
        const std::vector<ToggleRec> expected = run_scalar(lane);
        ASSERT_GT(expected.size(), sources.size());  // not vacuous
        EXPECT_EQ(tees[lane / 64u].lane(lane % 64u), expected);
    }
}

TEST(CompiledSim, GadgetCampaignWithAttributionBitIdentical) {
    // Driver-level identity on the attribution engine's primary workload:
    // the full TVLA statistics AND the per-net attribution report (ranked
    // nets, |t| heatmap, glitch matrix -- compared with operator==, i.e.
    // exact doubles) must not depend on the backend or the lane width.
    eval::GadgetTvlaConfig config;
    config.gadget = eval::GadgetKind::Trichina;
    config.replicas = 8;
    config.traces = 640;
    config.noise_sigma = 0.5;
    config.seed = 11;
    config.workers = 1;
    config.block_size = 128;
    config.run.attribution = true;

    config.lanes = 64;
    config.run.backend = "event";
    const eval::GadgetTvlaResult event = eval::run_gadget_tvla(config);

    config.lanes = 256;
    config.run.backend = "compiled";
    const eval::GadgetTvlaResult compiled = eval::run_gadget_tvla(config);

    EXPECT_EQ(event.max_abs_t1, compiled.max_abs_t1);
    EXPECT_EQ(event.max_abs_t2, compiled.max_abs_t2);
    EXPECT_EQ(event.argmax_cycle, compiled.argmax_cycle);
    EXPECT_EQ(event.leaks_first_order, compiled.leaks_first_order);
    EXPECT_EQ(event.attribution, compiled.attribution);
    ASSERT_TRUE(compiled.attribution.enabled);
    ASSERT_FALSE(compiled.attribution.ranked.empty());
    EXPECT_GT(compiled.attribution.ranked.front().max_abs_t, 0.0);  // not vacuous
}

TEST(CompiledSim, DesTvlaMatchesScalarBitForBit) {
    // The headline workload: a (small) DES TVLA campaign through the
    // compiled backend against the scalar event path, exact t-curve
    // equality at every order -- including a partial final group
    // (96 % 512 != 0, so the wide pass runs with dead lanes masked).
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    eval::DesTvlaConfig config;
    config.traces = 96;
    config.seed = 23;
    config.workers = 1;
    config.block_size = 48;

    config.lanes = 1;
    config.run.backend = "event";
    const eval::DesTvlaResult scalar = eval::run_des_tvla(core, config);

    config.lanes = 512;
    config.run.backend = "compiled";
    const eval::DesTvlaResult compiled = eval::run_des_tvla(core, config);

    EXPECT_EQ(scalar.toggles, compiled.toggles);
    for (int order = 1; order <= 3; ++order) {
        const std::vector<double> ts = scalar.campaign.t_curve(order);
        const std::vector<double> tc = compiled.campaign.t_curve(order);
        ASSERT_EQ(ts.size(), tc.size());
        for (std::size_t i = 0; i < ts.size(); ++i)
            EXPECT_EQ(ts[i], tc[i]) << "order " << order << " sample " << i;
    }
}

TEST(CompiledSim, BackendSwitchOnResumeIsBitIdentical) {
    // Neither the backend nor the lane width folds into the campaign
    // fingerprint -- every engine is ==, so a checkpoint written under one
    // backend resumes under the other to exactly the uninterrupted result.
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path =
        ::testing::TempDir() + "glitchmask_backend_switch.gmsnap";
    std::remove(path.c_str());

    auto base_config = [&path] {
        eval::DesTvlaConfig config;
        config.traces = 96;
        config.seed = 23;
        config.block_size = 8;
        config.lanes = 0;
        config.workers = 1;
        config.run.checkpoint_path = path;
        config.run.checkpoint_every = 2;
        return config;
    };

    eval::DesTvlaConfig plain = base_config();
    plain.run.checkpoint_path.clear();
    const eval::DesTvlaResult baseline = eval::run_des_tvla(core, plain);

    for (const auto& [first, second] :
         {std::pair<const char*, const char*>{"event", "compiled"},
          std::pair<const char*, const char*>{"compiled", "event"}}) {
        SCOPED_TRACE(std::string(first) + " -> " + second);
        const bool first_compiled = std::string_view(first) == "compiled";
        std::remove(path.c_str());
        CancelToken token;
        eval::DesTvlaConfig cfg = base_config();
        cfg.run.backend = first;
        cfg.lanes = first_compiled ? 128 : 0;
        cfg.run.cancel = &token;
        cfg.run.on_checkpoint = [&token](std::size_t completed_blocks) {
            if (completed_blocks >= 2) token.request();
        };
        const eval::DesTvlaResult partial = eval::run_des_tvla(core, cfg);
        ASSERT_TRUE(partial.cancelled);
        ASSERT_LT(partial.completed_traces, cfg.traces);
        ASSERT_TRUE(read_file_if_exists(path).has_value());

        eval::DesTvlaConfig other = base_config();
        other.run.backend = second;
        other.lanes = first_compiled ? 0 : 512;
        const eval::DesTvlaResult resumed = eval::run_des_tvla(core, other);
        EXPECT_TRUE(resumed.resumed);
        EXPECT_EQ(resumed.completed_traces, other.traces);
        EXPECT_EQ(resumed.toggles, baseline.toggles);
        for (int order = 1; order <= 3; ++order) {
            const std::vector<double> tb = baseline.campaign.t_curve(order);
            const std::vector<double> tr = resumed.campaign.t_curve(order);
            ASSERT_EQ(tb.size(), tr.size());
            for (std::size_t i = 0; i < tb.size(); ++i)
                EXPECT_EQ(tb[i], tr[i]) << "order " << order << " sample " << i;
        }
    }
    std::remove(path.c_str());
}

TEST(CompiledSim, PlanWidthFollowsTheBlockSize) {
    // run_campaign cuts lane groups inside blocks, so a compiled pass left
    // at lanes = 0 is never wider than one block (rounded up to a lane
    // width): with the default 64-trace blocks it is 64 lanes, not 512.
    // An explicit width is honoured as given.
    constexpr std::size_t kDesNets = 3802;
    eval::CampaignRunOptions run;
    run.backend = "compiled";
    const eval::BackendPlan plan =
        eval::resolve_backend_plan(run, 0, false, kDesNets);  // block 64
    EXPECT_EQ(plan.backend, eval::SimBackend::Compiled);
    EXPECT_EQ(plan.lanes, 64u);
    EXPECT_EQ(eval::resolve_backend_plan(run, 0, false, 0, 100).lanes, 128u);
    EXPECT_EQ(eval::resolve_backend_plan(run, 0, false, 0, 4096).lanes, 512u);
    EXPECT_TRUE(sim::compiled_lane_width(
        eval::resolve_backend_plan(run, 0, false, kDesNets, 4096).lanes));
    EXPECT_EQ(eval::resolve_backend_plan(run, 512, false, kDesNets, 64).lanes,
              512u);

    // Lanes = 1 and timing coupling give the scalar path on either backend.
    EXPECT_TRUE(eval::resolve_backend_plan(run, 1, false).scalar());
    EXPECT_TRUE(eval::resolve_backend_plan(run, 256, true).scalar());
    run.backend = "event";
    EXPECT_EQ(eval::resolve_backend_plan(run, 64, false).lanes, 64u);
    EXPECT_TRUE(eval::resolve_backend_plan(run, 64, true).scalar());
    EXPECT_THROW((void)eval::resolve_backend_plan(run, 128, false),
                 std::invalid_argument);
    EXPECT_THROW((void)eval::resolve_backend_plan(run, 7, false),
                 std::invalid_argument);
}

TEST(CompiledSim, ProgramCacheSharesCompiledPrograms) {
    // Two engines over the same (netlist, delay model, options) triple
    // must share one immutable program through the process-wide LRU; a
    // different SimOptions compiles (and caches) a distinct program.
    Harness h = build(eval::GadgetKind::Trichina, 4);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    const sim::ClockConfig clock{kPeriod};

    sim::clear_compiled_program_cache();
    const sim::CompiledCacheStats before = sim::compiled_program_cache_stats();
    ASSERT_EQ(before.entries, 0u);

    sim::CompiledClockedSim a(h.nl, dm, 64, clock);
    sim::CompiledClockedSim b(h.nl, dm, 512, clock);  // width is not a key
    EXPECT_EQ(a.program().get(), b.program().get());

    sim::CompiledClockedSim c(h.nl, dm, 64, clock, {},
                              sim::SimOptions{false, 1.0});  // transport mode
    EXPECT_NE(a.program().get(), c.program().get());

    const sim::CompiledCacheStats after = sim::compiled_program_cache_stats();
    EXPECT_EQ(after.entries, 2u);
    EXPECT_EQ(after.misses, before.misses + 2);
    EXPECT_GE(after.hits, before.hits + 1);
}

TEST(CompiledSim, ProgramCacheKeysOnStructureAndDelayConfig) {
    // A DelayModel is a pure function of (netlist, DelayConfig), so the
    // cache keys on those: a second model drawn from the same pair hits,
    // and any change of the config or of the wiring misses.
    Harness h = build(eval::GadgetKind::Trichina, 4);
    const sim::DelayConfig base = sim::DelayConfig::spartan6();
    sim::clear_compiled_program_cache();
    const auto first = sim::compile_netlist(h.nl, sim::DelayModel(h.nl, base));
    EXPECT_EQ(sim::compile_netlist(h.nl, sim::DelayModel(h.nl, base)).get(),
              first.get());
    EXPECT_EQ(sim::compiled_program_cache_stats().hits, 1u);

    const auto misses = [&first](const netlist::Netlist& nl,
                                 const sim::DelayConfig& config) {
        return sim::compile_netlist(nl, sim::DelayModel(nl, config)).get() !=
               first.get();
    };
    sim::DelayConfig seed = base;
    seed.seed += 1;
    EXPECT_TRUE(misses(h.nl, seed));
    sim::DelayConfig wire = base;
    wire.wire_max_ps -= 1;
    EXPECT_TRUE(misses(h.nl, wire));
    sim::DelayConfig nominal = base;
    ++nominal.nominal_ps[static_cast<std::size_t>(
        h.nl.cell(static_cast<NetId>(h.nl.size() - 1)).kind)];
    EXPECT_TRUE(misses(h.nl, nominal));
    EXPECT_FALSE(misses(h.nl, base));

    // Same size, same kinds, same delays (deterministic config): only one
    // input of one gate is rewired.
    const auto wired = [](bool rewire) {
        netlist::Netlist nl;
        const NetId x = nl.input("x");
        const NetId y = nl.input("y");
        const NetId z = nl.input("z");
        const NetId g = nl.and2(x, rewire ? z : y);
        (void)nl.xor2(g, z);
        nl.freeze();
        return nl;
    };
    const netlist::Netlist a = wired(false);
    const netlist::Netlist b = wired(true);
    const sim::DelayConfig flat = sim::DelayConfig::deterministic();
    const auto pa = sim::compile_netlist(a, sim::DelayModel(a, flat));
    const auto pb = sim::compile_netlist(b, sim::DelayModel(b, flat));
    EXPECT_NE(pa.get(), pb.get());
    EXPECT_NE(pa->key, pb->key);
    // y feeds the AND gate in `a` only.
    EXPECT_EQ(pa->fanout_begin[2] - pa->fanout_begin[1], 1u);
    EXPECT_EQ(pb->fanout_begin[2] - pb->fanout_begin[1], 0u);

    const sim::CompiledCacheStats stats = sim::compiled_program_cache_stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 6u);
}

}  // namespace
}  // namespace glitchmask

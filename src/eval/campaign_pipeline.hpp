// One sharded campaign pipeline behind every driver.
//
// Every evaluation in the paper is the same loop -- restart the device,
// apply a stimulus, record the per-cycle power trace, fold it into the
// statistics.  run_campaign() is that loop, once: validation, backend and
// attribution plans, fingerprint folds, telemetry session, checkpoint
// policy, one scalar and one lane block body, and the one place where the
// backend plan picks the lane engine.  The drivers (eval/campaign.cpp,
// eval/gadget_tvla.cpp, eval/des_experiments.cpp) only define stimuli.
//
// A Stimulus is a template parameter -- no virtual or std::function call
// per trace or group -- with `bins` (power bins per trace), a `Scratch`
// type (per-worker lane-group buffers) and three calls, each a pure
// function of (seed, trace index) so both paths see the same traces:
//   bool drive_trace(sim::ClockedSim&, n)  drive trace n, return its class
//   fill(Scratch&, first, count, fixed)    draw a lane group; lane l's
//                                          class bit goes to fixed[l / 64]
//   drive_group(LaneSim&, Scratch&)        drive the drawn group
//
// A Stats policy is the statistics half of the block accumulator: State
// make(), merge, encode, decode, and fold(State&, worker, lane, n, fixed,
// phases) of trace n from one lane of a LaneWorker or of the one-lane
// ScalarWorker (eval/lane_backend.hpp).  A snapshot frontier entry is the
// State's encoding, then the attribution accumulator's when attribution
// is on.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/lane_backend.hpp"
#include "eval/parallel_campaign.hpp"
#include "eval/run_report.hpp"
#include "leakage/attribution.hpp"
#include "leakage/moment_bank.hpp"
#include "power/power_model.hpp"
#include "sim/clocked.hpp"
#include "support/campaign_error.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace glitchmask::eval {

/// Everything about one campaign except its stimulus and statistics.
struct CampaignSetup {
    std::string tag;  // campaign id; default checkpoint and report id
    const netlist::Netlist& nl;
    const sim::DelayModel& dm;
    sim::ClockConfig clock = {};
    sim::CouplingConfig coupling = {};
    double coupling_epsilon = 0.0;  // recorders' Miller energy term
    std::size_t traces = 0;
    std::size_t block_size = 64;
    unsigned lanes = 0;  // config convention: 0 auto, 1 scalar, 64..512
    const CampaignRunOptions& run;
    /// The driver's campaign identity; the pipeline folds in attribution
    /// and the backend.
    CampaignFingerprint fingerprint;
};

/// Fixed-vs-random TVLA statistics: the fused MomentBank, plus the
/// committed-toggle count when `kToggles` (the DES campaign's activity
/// metric).  Snapshot form: the bank (byte-identical to TvlaCampaign),
/// then the u64 toggle count when kToggles.
template <bool kToggles>
struct TvlaStats {
    std::size_t bins = 0;
    int max_test_order = 2;
    std::uint64_t seed = 0;  // noise streams
    double noise_sigma = 0.0;

    struct State {
        leakage::MomentBank bank;
        std::uint64_t toggles = 0;
    };

    [[nodiscard]] State make() const {
        return State{leakage::MomentBank(bins, max_test_order)};
    }
    static void merge(State& into, const State& from) {
        into.bank.merge(from.bank);
        into.toggles += from.toggles;
    }
    static void encode(const State& state, SnapshotWriter& out) {
        state.bank.encode(out);
        if constexpr (kToggles) out.u64(state.toggles);
    }
    [[nodiscard]] State decode(SnapshotReader& in) const {
        State state{leakage::MomentBank::decode(in)};
        if constexpr (kToggles) state.toggles = in.u64();
        return state;
    }
    /// Noise comes in bin order from trace n's counter-based stream, and
    /// the noisy row streams straight into the bank -- the same addend
    /// sequence per accumulator on both paths.
    template <class Worker>
    void fold(State& state, Worker& w, unsigned lane, std::size_t n,
              bool fixed, telemetry::PhaseClock& phases) const {
        Xoshiro256 rng = trace_rng(seed, kNoiseStream, n);
        w.noisy_row(lane, rng, noise_sigma, w.noisy);
        if constexpr (kToggles) state.toggles += w.lane_toggles(lane);
        phases.lap(telemetry::Counter::kPhaseNoiseNanos);
        state.bank.add_trace(fixed, w.noisy.data());
        phases.lap(telemetry::Counter::kPhaseMomentsNanos);
    }
};

/// Noise-free per-bin power sums (the mean traces of Figs. 13/16).
/// Snapshot form: u64 bin count, then one f64 per bin.
struct PowerSums {
    std::size_t bins = 0;

    using State = std::vector<double>;

    [[nodiscard]] State make() const { return State(bins, 0.0); }
    static void merge(State& into, const State& from) {
        for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
    }
    static void encode(const State& state, SnapshotWriter& out) {
        out.u64(state.size());
        for (const double v : state) out.f64(v);
    }
    [[nodiscard]] State decode(SnapshotReader& in) const {
        if (in.u64() != bins)
            throw CampaignError(CampaignErrorKind::CorruptSnapshot,
                                "snapshot: mean-power sample count mismatch");
        State state(bins);
        for (double& v : state) v = in.f64();
        return state;
    }
    template <class Worker>
    void fold(State& state, const Worker& w, unsigned lane, std::size_t /*n*/,
              bool /*fixed*/, telemetry::PhaseClock& phases) const {
        for (std::size_t i = 0; i < bins; ++i) state[i] += w.sample(i, lane);
        phases.lap(telemetry::Counter::kPhaseMomentsNanos);
    }
};

template <class State>
struct CampaignOutput {
    State stats;
    CampaignProgress progress;
    leakage::AttributionResult attribution;  // disabled unless attributing
};

/// Runs one campaign on `pool`.  `report(stats, session)` adds the
/// driver's headline metrics to the run report before it is written.
template <class Stimulus, class Stats, class Report>
[[nodiscard]] CampaignOutput<typename Stats::State> run_campaign(
    const CampaignSetup& setup, const Stimulus& stimulus, const Stats& stats,
    ThreadPool& pool, Report&& report) {
    using State = typename Stats::State;
    struct Block {
        State stats;
        leakage::AttributionAccumulator attr;  // zero points when off
    };

    validate_campaign_config(setup.traces, setup.block_size, setup.lanes);
    const CampaignRunOptions& run = setup.run;
    const std::size_t bins = stimulus.bins;
    // Timing coupling makes delays data-dependent, which no shared lane
    // schedule can express: the plan falls back to the scalar engine.
    const BackendPlan bplan =
        resolve_backend_plan(run, setup.lanes, setup.coupling.timing_enabled,
                             setup.nl.size());
    const bool attribute = attribution_enabled(run);
    const leakage::AttributionPlan attr_plan =
        attribute ? leakage::AttributionPlan(setup.nl, bins,
                                             setup.clock.period_ps,
                                             run.attribution_scope)
                  : leakage::AttributionPlan();
    const leakage::AttributionPlan* probe_plan = attribute ? &attr_plan : nullptr;
    CampaignFingerprint fingerprint = setup.fingerprint;
    if (attribute) fold_attribution_fingerprint(fingerprint, run);
    fold_backend_fingerprint(fingerprint, bplan);
    RunTelemetrySession session(setup.tag, run, fingerprint, setup.traces,
                                pool.size(), bplan.lanes);
    CheckpointPolicy policy = make_checkpoint_policy(run, setup.tag);
    session.attach(policy);

    power::PowerConfig power;
    power.bin_ps = setup.clock.period_ps;
    power.coupling_epsilon = setup.coupling_epsilon;

    CampaignOutput<State> out;
    const auto run_blocks = [&](auto make_worker, auto run_block) {
        return run_sharded_blocks_checkpointed(
            pool, ShardPlan{setup.traces, setup.block_size}, make_worker,
            [&] {
                return Block{stats.make(),
                             leakage::AttributionAccumulator(attr_plan.points())};
            },
            run_block,
            [&](Block& into, const Block& from) {
                stats.merge(into.stats, from.stats);
                into.attr.merge(from.attr);
            },
            policy, fingerprint,
            [&](const Block& acc, SnapshotWriter& writer) {
                stats.encode(acc.stats, writer);
                if (attribute) acc.attr.encode(writer);
            },
            [&](SnapshotReader& in) {
                Block acc{stats.decode(in), {}};
                if (attribute)
                    acc.attr = leakage::AttributionAccumulator::decode(in);
                return acc;
            },
            &out.progress, session.meter());
    };

    // Scalar path: one event-queue pass per trace.
    const auto scalar_block = [&](std::unique_ptr<ScalarWorker>& w,
                                  std::size_t begin, std::size_t end,
                                  Block& acc) {
        telemetry::PhaseClock phases;
        phases.mark();
        for (std::size_t n = begin; n < end; ++n) {
            w->sim.restart();
            w->recorder.begin_trace(bins);
            if (w->probe) w->probe->begin_trace();
            const bool fixed = stimulus.drive_trace(w->sim, n);
            phases.lap(telemetry::Counter::kPhaseSimNanos);
            stats.fold(acc.stats, *w, 0, n, fixed, phases);
            if (w->probe) w->probe->fold_trace(fixed, acc.attr);
            phases.lap(telemetry::Counter::kPhaseAttributionNanos);
        }
        phases.flush();
        if (telemetry::enabled())
            telemetry::record_sim_block(w->sim.engine().stats(), w->last_stats);
    };

    // Lane path: one pass per group of up to group_lanes() consecutive
    // traces.  Groups are cut within each block (a short tail uses fewer
    // lanes), so any block size stays bit-identical to the scalar path.
    const auto lane_block = [&](auto& replica, std::size_t begin,
                                std::size_t end, Block& acc) {
        auto& w = *replica.worker;
        telemetry::PhaseClock phases;
        phases.mark();
        const unsigned group_lanes = w.group_lanes();
        for (std::size_t group = begin; group < end; group += group_lanes) {
            const unsigned count = static_cast<unsigned>(
                std::min<std::size_t>(group_lanes, end - group));
            std::array<std::uint64_t, sim::kMaxLaneChunks> fixed{};
            stimulus.fill(replica.scratch, group, count, fixed.data());
            w.sim.restart();
            w.begin_group(bins, fixed.data(), count, &acc.attr);
            stimulus.drive_group(w.sim, replica.scratch);
            phases.lap(telemetry::Counter::kPhaseSimNanos);
            // Chunk c holds traces group+64c .. group+64c+63; folding
            // chunk by chunk, lanes in order, is trace order.
            for (unsigned c = 0; c * 64u < count; ++c) {
                const unsigned live = std::min(64u, count - c * 64u);
                for (unsigned lane = 0; lane < live; ++lane)
                    stats.fold(acc.stats, w, c * 64u + lane,
                               group + c * 64u + lane,
                               ((fixed[c] >> lane) & 1u) != 0, phases);
                if (!w.probes.empty()) w.probes[c].fold_group();
                phases.lap(telemetry::Counter::kPhaseAttributionNanos);
            }
        }
        w.finish_block();
        phases.lap(telemetry::Counter::kPhaseAttributionNanos);
        phases.flush();
        if (telemetry::enabled())
            telemetry::record_sim_block(w.sim.stats(), w.last_stats);
    };
    const auto run_lanes = [&](auto make_lane_worker) {
        return run_blocks(
            [&] {
                // The engine's LaneWorker plus the stimulus' scratch,
                // reused for every group.
                struct Replica {
                    decltype(make_lane_worker()) worker;
                    typename Stimulus::Scratch scratch;
                };
                Replica replica{make_lane_worker(), {}};
                replica.worker->attach_sinks(setup.nl, power, probe_plan);
                return replica;
            },
            lane_block);
    };

    Block merged = [&] {
        if (bplan.scalar())
            return run_blocks(
                [&] {
                    return std::make_unique<ScalarWorker>(
                        setup.nl, setup.dm, setup.clock, setup.coupling, power,
                        probe_plan);
                },
                scalar_block);
        if (bplan.backend == SimBackend::Compiled)
            return run_lanes([&] {
                return std::make_unique<LaneWorker<sim::CompiledClockedSim>>(
                    setup.nl, setup.dm, bplan.lanes, setup.clock,
                    setup.coupling, sim::SimOptions{});
            });
        return run_lanes([&] {
            return std::make_unique<LaneWorker<EventLaneSim>>(
                setup.nl, setup.dm, setup.clock, setup.coupling);
        });
    }();

    out.stats = std::move(merged.stats);
    report(std::as_const(out.stats), session);
    if (attribute) {
        out.attribution =
            leakage::analyze_attribution(setup.nl, attr_plan, merged.attr);
        session.set_attribution(out.attribution, run.attribution_top_k,
                                run.attribution_scope);
    }
    session.finish(out.progress);
    return out;
}

/// The first/second-order TVLA campaign of the sequence and gadget
/// drivers: runs it and fills `result`'s shared headline fields.
template <class Result, class Stimulus>
void run_tvla_campaign(const CampaignSetup& setup, const Stimulus& stimulus,
                       int max_test_order, std::uint64_t seed,
                       double noise_sigma, ThreadPool& pool, Result& result) {
    auto out = run_campaign(
        setup, stimulus,
        TvlaStats<false>{stimulus.bins, max_test_order, seed, noise_sigma},
        pool, [&](const auto& stats, RunTelemetrySession& session) {
            result.max_abs_t1 = stats.bank.max_abs_t(1, &result.argmax_cycle);
            result.max_abs_t2 = stats.bank.max_abs_t(2);
            session.add_metric("max_abs_t_order1", result.max_abs_t1);
            session.add_metric("max_abs_t_order2", result.max_abs_t2);
        });
    result.leaks_first_order = result.max_abs_t1 > leakage::kTvlaThreshold;
    result.completed_traces = out.progress.completed_traces;
    result.cancelled = out.progress.cancelled;
    result.resumed = out.progress.resumed;
    result.attribution = std::move(out.attribution);
}

/// The Spartan-6 delay annotation under one placement seed.
[[nodiscard]] inline sim::DelayConfig placed_delays(std::uint64_t seed) {
    sim::DelayConfig config = sim::DelayConfig::spartan6();
    config.seed = seed;
    return config;
}

}  // namespace glitchmask::eval

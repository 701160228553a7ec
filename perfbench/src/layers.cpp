// The traced per-layer suite for the campaign modules.  Each figure is
// taken around public calls into one layer, with the campaign workloads'
// own circuits, delay models and backend plan:
//
//   des      core construction
//   sim      program compile, engine replay with no sink, activity counts
//   power    BatchPowerRecorder deposit (recorder on minus recorder off)
//   eval     harness construction, stimulus, noise, worker scaling,
//            checkpoint write
//   leakage  moment fold, finalize, attribution probe (probe in front of
//            the recorder minus the recorder alone)
//
// Differences ("A minus B") are medians over interleaved A/B rounds.

#include <array>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/sharing.hpp"
#include "des/masked_des.hpp"
#include "eval/checkpoint.hpp"
#include "eval/des_experiments.hpp"
#include "eval/gadget_tvla.hpp"
#include "eval/lane_backend.hpp"
#include "eval/parallel_campaign.hpp"
#include "leakage/attribution.hpp"
#include "leakage/moment_bank.hpp"
#include "service/json_writer.hpp"
#include "sim/compiled_simulator.hpp"
#include "support/atomic_file.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace gm = glitchmask;
using gm::eval::LaneWorker;

namespace {

constexpr int kBuildReps = 3;
constexpr int kReplayRounds = 7;
/// Live lanes per engine pass.  The campaign drivers cut lane groups in each
/// 64-trace block (their default block size), so a pass carries at most
/// 64 traces whatever the engine's width; "per group" means per such pass.
constexpr unsigned kBlockTraces = 64;

template <class F>
double time_ms(const char* span_name, F&& f) {
    const gm::trace::ScopedSpan span(span_name);
    const std::int64_t t0 = now_ns();
    f();
    return seconds_since(t0) * 1e3;
}

/// Calls `body(worker)` with a LaneWorker of the plan's engine.
template <class Body>
void with_lane_worker(const gm::eval::BackendPlan& plan,
                      const gm::netlist::Netlist& nl,
                      const gm::sim::DelayModel& dm, gm::sim::ClockConfig clock,
                      Body&& body) {
    if (plan.backend == gm::eval::SimBackend::Compiled) {
        LaneWorker<gm::sim::CompiledClockedSim> worker(nl, dm, plan.lanes,
                                                       clock);
        body(worker);
    } else {
        LaneWorker<gm::eval::EventLaneSim> worker(nl, dm, clock);
        body(worker);
    }
}

// ----- des / sim / power -------------------------------------------------

/// One lane group of DES stimulus, drawn as run_des_tvla draws it.
struct DesGroup {
    std::vector<gm::core::MaskedWord> pts, keys;
    std::vector<gm::Xoshiro256> prngs;
    std::array<std::uint64_t, gm::sim::kMaxLaneChunks> fixed{};
};

DesGroup des_group(std::uint64_t seed, std::size_t first, unsigned count) {
    const gm::eval::DesTvlaConfig defaults;
    DesGroup group;
    for (unsigned lane = 0; lane < count; ++lane) {
        gm::Xoshiro256 rng =
            gm::eval::trace_rng(seed, gm::eval::kStimulusStream, first + lane);
        const bool fixed = rng.bit();
        if (fixed) group.fixed[lane / 64u] |= std::uint64_t{1} << (lane % 64u);
        const std::uint64_t pt = fixed ? defaults.fixed_plaintext : rng();
        group.pts.push_back(gm::core::mask_word(pt, 64, rng));
        group.keys.push_back(gm::core::mask_word(defaults.key, 64, rng));
        group.prngs.push_back(rng);
    }
    return group;
}

void des_layers(const Options& options, Report& report,
                gm::service::JsonWriter& detail) {
    std::optional<gm::des::MaskedDesCore> core;
    std::vector<double> builds;
    for (int rep = 0; rep < kBuildReps; ++rep) {
        core.reset();
        builds.push_back(time_ms("des.core_build", [&] { core.emplace(); }));
    }
    report.layer("des.core_build_ms", median(builds));

    const gm::netlist::Netlist& nl = core->nl();
    gm::sim::DelayConfig delay = gm::sim::DelayConfig::spartan6();
    delay.seed = 1;
    const gm::sim::DelayModel dm(nl, delay);
    std::vector<double> compiles;
    for (int rep = 0; rep < kBuildReps; ++rep) {
        gm::sim::clear_compiled_program_cache();
        compiles.push_back(time_ms(
            "sim.compile", [&] { (void)gm::sim::compile_netlist(nl, dm); }));
    }
    report.layer("sim.compile_ms", median(compiles));

    const gm::eval::BackendPlan plan = default_plan(nl.size());
    gm::sim::ClockConfig clock;
    clock.period_ps = core->recommended_period();
    gm::power::PowerConfig power_config;
    power_config.bin_ps = clock.period_ps;
    const std::size_t samples = core->total_cycles();
    const unsigned lanes = std::min(plan.lanes, kBlockTraces);

    std::vector<double> bare_us, recorded_us;
    gm::telemetry::SimStats before{}, after{};
    std::size_t bare_traces = 0;
    with_lane_worker(plan, nl, dm, clock, [&](auto& bare) {
        with_lane_worker(plan, nl, dm, clock, [&](auto& recorded) {
            recorded.attach_sinks(nl, power_config, nullptr);
            before = bare.sim.stats();
            for (int round = 0; round < kReplayRounds; ++round) {
                const DesGroup group =
                    des_group(options.seed, round * std::size_t{lanes}, lanes);
                const auto replay = [&](auto& worker, bool sinks,
                                        const char* span_name) {
                    DesGroup input = group;  // encrypt consumes the prngs
                    const gm::trace::ScopedSpan span(span_name);
                    const std::int64_t t0 = now_ns();
                    worker.sim.restart();
                    if (sinks) worker.begin_group(samples, input.fixed.data(),
                                                  lanes);
                    (void)core->encrypt_batch_chunks(worker.sim, input.pts,
                                                     input.keys,
                                                     std::span(input.prngs));
                    return seconds_since(t0) * 1e6;
                };
                bare_us.push_back(replay(bare, false, "sim.replay"));
                recorded_us.push_back(
                    replay(recorded, true, "power.replay_with_deposit"));
                bare_traces += lanes;
            }
            after = bare.sim.stats();
        });
    });
    const double replay = median(bare_us);
    const double deposit = median(recorded_us) - replay;
    const auto per_trace = [&](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a) / static_cast<double>(bare_traces);
    };
    const double toggles = per_trace(before.toggles, after.toggles);
    report.layer("sim.replay_us_per_group", replay);
    report.layer("sim.events_per_trace", per_trace(before.events, after.events));
    report.layer("sim.toggles_per_trace", toggles);
    report.layer("sim.glitches_per_trace",
                 per_trace(before.glitches, after.glitches));
    report.layer("power.deposit_us_per_group", deposit);
    report.layer("power.ns_per_toggle",
                 deposit * 1e3 / (toggles * static_cast<double>(lanes)));

    // Worker scaling of the whole DES campaign: W = 1..nproc workers on
    // 4 blocks per worker at the widest point.
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    gm::eval::DesTvlaConfig config;
    config.traces = std::size_t{256} * nproc;
    config.seed = options.seed;
    std::vector<double> rate;
    detail.key("worker_curve_traces_per_s");
    detail.begin_array();
    for (unsigned workers = 1; workers <= nproc; ++workers) {
        config.workers = workers;
        const double ms = time_ms("eval.worker_curve", [&] {
            (void)gm::eval::run_des_tvla(*core, config);
        });
        rate.push_back(static_cast<double>(config.traces) * 1e3 / ms);
        detail.value(rate.back());
    }
    detail.end_array();
    report.layer("eval.worker_efficiency",
                 rate.back() / (static_cast<double>(nproc) * rate.front()));
}

// ----- eval / leakage on the gadget workload ------------------------------

/// One lane group of secAND2-PD stimulus as bit-sliced input words.
struct GadgetGroup {
    std::array<std::uint64_t, gm::sim::kMaxLaneChunks> fixed{};
    std::array<std::array<std::uint64_t, gm::sim::kMaxLaneChunks>, 4> shares{};
    std::array<std::array<std::uint64_t, gm::sim::kMaxLaneChunks>, 3> fresh{};
};

GadgetGroup gadget_group(unsigned fresh_bits, std::uint64_t seed,
                         std::size_t first, unsigned count) {
    GadgetGroup group;
    for (unsigned lane = 0; lane < count; ++lane) {
        const gm::eval::GadgetStimulus stim =
            gm::eval::gadget_stimulus(fresh_bits, seed, first + lane);
        const unsigned c = lane / 64u;
        const std::uint64_t bit = std::uint64_t{1} << (lane % 64u);
        if (stim.fixed) group.fixed[c] |= bit;
        for (std::size_t i = 0; i < 4; ++i)
            if (stim.shares[i]) group.shares[i][c] |= bit;
        for (unsigned i = 0; i < fresh_bits; ++i)
            if (stim.fresh[i]) group.fresh[i][c] |= bit;
    }
    return group;
}

/// The harness's 5-window drive schedule on a lane sim.
template <class Sim>
void drive_gadget(Sim& s, const gm::eval::GadgetCircuit& circuit,
                  const GadgetGroup& group) {
    for (unsigned c = 0; c < s.chunks(); ++c) {
        s.set_input_word(circuit.x_in.s0, c, group.shares[0][c]);
        s.set_input_word(circuit.x_in.s1, c, group.shares[1][c]);
        s.set_input_word(circuit.y_in.s0, c, group.shares[2][c]);
        s.set_input_word(circuit.y_in.s1, c, group.shares[3][c]);
        for (std::size_t i = 0; i < circuit.rand_in.size(); ++i)
            s.set_input_word(circuit.rand_in[i], c, group.fresh[i][c]);
    }
    s.step();
    s.set_enable(1, true);
    s.step();
    s.set_enable(1, false);
    if (circuit.has_stage2) s.set_enable(2, true);
    s.step();
    if (circuit.has_stage2) s.set_enable(2, false);
    s.step();
}

void gadget_layers(const Options& options, Report& report) {
    constexpr std::size_t kBins = gm::eval::GadgetHarness::kCycles;
    std::optional<gm::eval::GadgetHarness> harness;
    std::vector<double> builds;
    for (int rep = 0; rep < kBuildReps; ++rep) {
        harness.reset();
        builds.push_back(time_ms("eval.harness_build", [&] {
            harness.emplace(gm::eval::GadgetKind::Pd, 16u, 1u);
        }));
    }
    report.layer("eval.harness_build_ms", median(builds));

    const unsigned fresh = harness->fresh_bits();
    constexpr std::size_t kStimulusTraces = 200000;
    std::uint64_t fixed_count = 0;
    const double stim_ms = time_ms("eval.stimulus", [&] {
        for (std::size_t i = 0; i < kStimulusTraces; ++i)
            fixed_count += gm::eval::gadget_stimulus(fresh, options.seed, i).fixed;
    });
    report.layer("eval.stimulus_ns_per_trace",
                 stim_ms * 1e6 / static_cast<double>(kStimulusTraces));
    if (fixed_count == 0) report.errors.push_back("stimulus: no fixed traces");

    const gm::netlist::Netlist& nl = harness->nl();
    const gm::eval::BackendPlan plan = default_plan(nl.size());
    const unsigned lanes = std::min(plan.lanes, kBlockTraces);
    gm::power::PowerConfig power_config;
    power_config.bin_ps = harness->clock().period_ps;
    const gm::leakage::AttributionPlan attr_plan(
        nl, kBins, harness->clock().period_ps, /*scope=*/"");
    gm::leakage::AttributionAccumulator attr(attr_plan.points());
    gm::leakage::MomentBank bank(kBins, /*max_test_order=*/2);

    constexpr unsigned kGroups = 64;  // groups (= blocks) per timed sample
    std::vector<double> recorder_us, probe_us, noise_ns;
    std::vector<std::vector<double>> rows(lanes);
    with_lane_worker(plan, nl, harness->delay_model(), harness->clock(),
                     [&](auto& recorded) {
    with_lane_worker(plan, nl, harness->delay_model(), harness->clock(),
                     [&](auto& probed) {
        recorded.attach_sinks(nl, power_config, nullptr);
        probed.attach_sinks(nl, power_config, &attr_plan);
        std::vector<GadgetGroup> groups;
        for (unsigned g = 0; g < kGroups; ++g)
            groups.push_back(gadget_group(fresh, options.seed,
                                          std::size_t{g} * lanes, lanes));
        for (int round = 0; round < kReplayRounds; ++round) {
            const std::int64_t t0 = now_ns();
            {
                const gm::trace::ScopedSpan span("leakage.replay_recorder");
                for (const GadgetGroup& group : groups) {
                    recorded.sim.restart();
                    recorded.begin_group(kBins, group.fixed.data(), lanes);
                    drive_gadget(recorded.sim, harness->circuit(), group);
                }
            }
            recorder_us.push_back(seconds_since(t0) * 1e6 / kGroups);
            const std::int64_t t1 = now_ns();
            {
                const gm::trace::ScopedSpan span("leakage.replay_probe");
                for (const GadgetGroup& group : groups) {
                    probed.sim.restart();
                    probed.begin_group(kBins, group.fixed.data(), lanes, &attr);
                    drive_gadget(probed.sim, harness->circuit(), group);
                    for (auto& probe : probed.probes) probe.fold_group();
                    probed.finish_block();
                }
            }
            probe_us.push_back(seconds_since(t1) * 1e6 / kGroups);

            // Noise on the last recorded group's rows.
            gm::Xoshiro256 rng(options.seed + static_cast<unsigned>(round));
            const double noise = time_ms("eval.noise", [&] {
                for (unsigned lane = 0; lane < lanes; ++lane)
                    recorded.noisy_row(lane, rng, 0.5, rows[lane]);
            });
            noise_ns.push_back(noise * 1e6 / (lanes * kBins));
        }
    });
    });
    report.layer("eval.noise_ns_per_sample", median(noise_ns));
    report.layer("leakage.probe_us_per_group",
                 median(probe_us) - median(recorder_us));

    constexpr unsigned kFoldReps = 256;
    std::vector<double> fold_ns;
    for (int round = 0; round < kReplayRounds; ++round) {
        const double fold = time_ms("leakage.fold", [&] {
            for (unsigned rep = 0; rep < kFoldReps; ++rep)
                for (unsigned lane = 0; lane < lanes; ++lane)
                    bank.add_trace(lane % 2 == 0, rows[lane].data());
        });
        fold_ns.push_back(fold * 1e6 / (double{kFoldReps} * lanes * kBins));
    }
    report.layer("leakage.fold_ns_per_point", median(fold_ns));
    std::vector<double> finalize_us;
    for (int rep = 0; rep < kBuildReps; ++rep) {
        finalize_us.push_back(1e3 * time_ms("leakage.finalize", [&] {
            (void)bank.max_abs_t(1);
            (void)bank.max_abs_t(2);
            (void)gm::leakage::analyze_attribution(nl, attr_plan, attr);
        }));
    }
    report.layer("leakage.finalize_us", median(finalize_us));

    // A spool checkpoint as a gadget job writes it: the merge frontier of
    // a 256-block campaign (one stack entry per set bit, here 1) plus
    // deeper stacks up to 8 entries, sealed and atomically replaced.
    const std::string path = options.workdir + "/layer.gmsnap";
    std::vector<double> write_ms;
    for (int rep = 0; rep < 9; ++rep) {
        write_ms.push_back(time_ms("eval.checkpoint_write", [&] {
            const gm::eval::CampaignFingerprint fp{1, options.seed, 16384, 64, 0};
            gm::SnapshotWriter out = gm::eval::begin_checkpoint(fp, 255, 8);
            for (int entry = 0; entry < 8; ++entry) {
                out.u64(std::uint64_t{1} << (7 - entry));
                bank.encode(out);
            }
            const std::vector<std::uint8_t> bytes = std::move(out).finish();
            gm::atomic_write_file(path, bytes);
        }));
    }
    std::filesystem::remove(path);
    report.layer("eval.checkpoint_write_ms", median(write_ms));
}

}  // namespace

void campaign_layers(const Options& options, Report& report) {
    const gm::trace::ScopedSpan span("layers.campaign");
    gm::service::JsonWriter detail;
    detail.begin_object();
    des_layers(options, report, detail);
    gadget_layers(options, report);
    detail.end_object();
    report.detail = detail.take();
}

}  // namespace perfbench

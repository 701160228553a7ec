// Leakage lab: the paper's core experiment at gadget scale.
//
// Three ways to run the same masked AND, identical TVLA campaign each:
//   1. "naive"      -- all four shares arrive at the same clock edge; the
//                      per-instance routing jitter decides the order, so
//                      some instances see an x share last and leak (this
//                      is the paper's "programming Eq. 2 directly into
//                      LUTs leaks" observation, Sec. II-A);
//   2. secAND2-FF   -- the internal flip-flop forces y1 to arrive a cycle
//                      late: no first-order leakage;
//   3. secAND2-PD   -- 10-LUT DelayUnits enforce the arrival order inside
//                      a single cycle: no first-order leakage.
// All three show second-order leakage -- unavoidable for 2 shares.
//
// Flags: --progress[=seconds] for a stderr heartbeat across the three
// campaigns, --report <path> for a JSON run report with the simulator
// counters and the per-style |t| peaks.
#include <cstdio>
#include <string>

#include "core/gadgets.hpp"
#include "core/sharing.hpp"
#include "eval/run_report.hpp"
#include "leakage/moment_bank.hpp"
#include "power/power_model.hpp"
#include "sim/clocked.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"

using namespace glitchmask;

namespace {

enum class Style { Naive, Ff, Pd };

struct Lab {
    core::Netlist nl;
    core::SharedNet x_in{}, y_in{};
    Style style;
};

Lab build(Style style, unsigned replicas) {
    Lab lab;
    lab.style = style;
    lab.x_in = core::shared_input(lab.nl, "x");
    lab.y_in = core::shared_input(lab.nl, "y");
    const core::SharedNet x = core::reg_shares(lab.nl, lab.x_in, 1);
    const core::SharedNet y = core::reg_shares(lab.nl, lab.y_in, 1);
    for (unsigned k = 0; k < replicas; ++k) {
        const std::string name = "g" + std::to_string(k);
        switch (style) {
            case Style::Naive:
                (void)core::secand2(lab.nl, x, y, name);
                break;
            case Style::Ff:
                (void)core::secand2_ff(lab.nl, x, y, /*enable=*/2,
                                       /*reset=*/3, name);
                break;
            case Style::Pd:
                (void)core::secand2_pd(lab.nl, x, y,
                                       core::PathDelayOptions{10, true}, name);
                break;
        }
    }
    lab.nl.freeze();
    return lab;
}

struct LabResult {
    double t1 = 0.0;
    double t2 = 0.0;
};

LabResult run(Style style, std::size_t traces,
              telemetry::ProgressMeter* meter) {
    Lab lab = build(style, 16);
    const sim::DelayModel dm(lab.nl, sim::DelayConfig::spartan6());
    sim::ClockConfig clock;
    clock.period_ps = 90000;  // room for the PD chains
    sim::ClockedSim sim(lab.nl, dm, clock);
    power::PowerRecorder recorder(lab.nl, power::PowerConfig{
                                              .bin_ps = clock.period_ps});
    sim.engine().set_sink(&recorder);

    constexpr std::size_t kCycles = 4;
    leakage::MomentBank campaign(kCycles, 2);
    Xoshiro256 rng(77);
    Xoshiro256 noise(78);
    for (std::size_t t = 0; t < traces; ++t) {
        const bool fixed = rng.bit();
        const bool xv = fixed ? true : rng.bit();
        const bool yv = fixed ? true : rng.bit();
        const core::MaskedBit mx = core::mask_bit(xv, rng);
        const core::MaskedBit my = core::mask_bit(yv, rng);
        sim.restart();
        recorder.begin_trace(kCycles);
        sim.set_input(lab.x_in.s0, mx.s0);
        sim.set_input(lab.x_in.s1, mx.s1);
        sim.set_input(lab.y_in.s0, my.s0);
        sim.set_input(lab.y_in.s1, my.s1);
        sim.step();
        sim.set_enable(1, true);
        sim.step();  // all shares land together (the naive hazard)
        if (style == Style::Ff) {
            sim.set_enable(2, true);
            sim.step();  // y1 follows one cycle later
        } else {
            sim.step();
        }
        campaign.add_trace(fixed, recorder.noisy_trace(noise, 0.5));
        if (meter != nullptr) meter->advance(1);
    }
    if (telemetry::enabled()) {
        telemetry::SimStats last;
        telemetry::record_sim_block(sim.engine().stats(), last);
    }
    return LabResult{campaign.max_abs_t(1), campaign.max_abs_t(2)};
}

}  // namespace

int main(int argc, char** argv) {
    const CliOptions cli = parse_cli(argc, argv);
    std::printf("Leakage lab: one masked AND, three hardware disciplines\n");
    std::printf("(16 parallel instances, 12000 traces each)\n\n");
    TablePrinter table(
        {"gadget", "arrival discipline", "max|t1|", "max|t2|", "1st order"});
    const std::size_t traces = 12000;

    eval::CampaignRunOptions run_options;
    run_options.report_path = cli.report_path;
    std::uint64_t payload = eval::kFnvOffset;
    payload = eval::fnv1a64(payload, /*replicas=*/16);
    payload = eval::fnv1a64(payload, /*styles=*/3);
    const eval::CampaignFingerprint fingerprint{
        eval::fnv1a64_tag("leakage_lab"), /*seed=*/77, 3 * traces, traces,
        payload};
    eval::RunTelemetrySession session("leakage_lab", run_options, fingerprint,
                                      3 * traces, /*workers=*/1, /*lanes=*/1);

    const LabResult naive = run(Style::Naive, traces, session.meter());
    const LabResult ff = run(Style::Ff, traces, session.meter());
    const LabResult pd = run(Style::Pd, traces, session.meter());
    table.add_row({"secAND2 (naive)", "all shares same edge",
                   TablePrinter::num(naive.t1), TablePrinter::num(naive.t2),
                   naive.t1 > 4.5 ? "LEAKS" : "no leak"});
    table.add_row({"secAND2-FF", "y1 delayed by internal FF",
                   TablePrinter::num(ff.t1), TablePrinter::num(ff.t2),
                   ff.t1 > 4.5 ? "LEAKS" : "no leak"});
    table.add_row({"secAND2-PD", "y0 -> x0,x1 -> y1 via DelayUnits",
                   TablePrinter::num(pd.t1), TablePrinter::num(pd.t2),
                   pd.t1 > 4.5 ? "LEAKS" : "no leak"});
    table.print();
    std::printf(
        "\nExpected: the naive mapping leaks at first order; both of the\n"
        "paper's gadgets do not; all three leak at second order (2 shares\n"
        "processed in parallel).\n");
    const bool ok = naive.t1 > 4.5 && ff.t1 < 4.5 && pd.t1 < 4.5;

    session.add_metric("naive_max_abs_t1", naive.t1);
    session.add_metric("naive_max_abs_t2", naive.t2);
    session.add_metric("ff_max_abs_t1", ff.t1);
    session.add_metric("ff_max_abs_t2", ff.t2);
    session.add_metric("pd_max_abs_t1", pd.t1);
    session.add_metric("pd_max_abs_t2", pd.t2);
    eval::CampaignProgress progress;
    progress.completed_blocks = 3;
    progress.completed_traces = 3 * traces;
    session.finish(progress);
    if (session.writes_report())
        std::printf("Run report: %s\n", session.report_path().c_str());
    return ok ? 0 : 1;
}

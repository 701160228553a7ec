// DelayUnit tuning at gadget scale (the fast version of the paper's
// Sec. V / Fig. 15 methodology).
//
// A bank of secAND2-PD gadgets runs two back-to-back multiplications per
// trace (continuous operation, no reset -- the scenario secAND2-PD is
// designed for).  Sweeping the DelayUnit size shows how larger delays
// separate the arrival times: first-order leakage fades as the unit grows
// past the routing-jitter spread, and the utilization cost rises.
//
// Flags: --progress[=seconds] for a stderr heartbeat across the sweep,
// --report <path> for a JSON run report with per-size |t| peaks and LUT
// counts.
#include <cstdio>
#include <string>

#include "core/gadgets.hpp"
#include "core/sharing.hpp"
#include "eval/run_report.hpp"
#include "leakage/moment_bank.hpp"
#include "netlist/area.hpp"
#include "netlist/lutmap.hpp"
#include "power/power_model.hpp"
#include "sim/clocked.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"

using namespace glitchmask;

namespace {

struct SweepPoint {
    double t1 = 0.0;
    double t2 = 0.0;
    std::size_t luts = 0;
};

SweepPoint run_size(unsigned unit_luts, std::size_t traces,
                    telemetry::ProgressMeter* meter) {
    core::Netlist nl;
    const core::SharedNet x_in = core::shared_input(nl, "x");
    const core::SharedNet y_in = core::shared_input(nl, "y");
    const core::SharedNet x = core::reg_shares(nl, x_in);
    const core::SharedNet y = core::reg_shares(nl, y_in);
    for (unsigned k = 0; k < 24; ++k)
        (void)core::secand2_pd(nl, x, y,
                               core::PathDelayOptions{unit_luts, true},
                               "g" + std::to_string(k));
    nl.freeze();

    const sim::DelayModel dm(nl, sim::DelayConfig::spartan6());
    sim::ClockConfig clock;
    clock.period_ps = 60000;
    sim::ClockedSim sim(nl, dm, clock);
    power::PowerRecorder recorder(nl, power::PowerConfig{
                                          .bin_ps = clock.period_ps});
    sim.engine().set_sink(&recorder);

    constexpr std::size_t kCycles = 5;
    leakage::MomentBank campaign(kCycles, 2);
    Xoshiro256 rng(31);
    Xoshiro256 noise(32);
    for (std::size_t t = 0; t < traces; ++t) {
        const bool fixed = rng.bit();
        sim.restart();
        recorder.begin_trace(kCycles);
        for (int op = 0; op < 2; ++op) {
            const bool classed = (op == 1) && fixed;
            const core::MaskedBit mx = core::mask_bit(classed || rng.bit(), rng);
            const core::MaskedBit my =
                core::mask_bit(classed ? true : rng.bit(), rng);
            sim.set_input(x_in.s0, mx.s0);
            sim.set_input(x_in.s1, mx.s1);
            sim.set_input(y_in.s0, my.s0);
            sim.set_input(y_in.s1, my.s1);
            sim.step(2);
        }
        campaign.add_trace(fixed, recorder.noisy_trace(noise, 0.5));
        if (meter != nullptr) meter->advance(1);
    }
    if (telemetry::enabled()) {
        telemetry::SimStats last;
        telemetry::record_sim_block(sim.engine().stats(), last);
    }
    SweepPoint point;
    point.t1 = campaign.max_abs_t(1);
    point.t2 = campaign.max_abs_t(2);
    point.luts = netlist::estimate_luts(nl).luts;
    return point;
}

}  // namespace

int main(int argc, char** argv) {
    const CliOptions cli = parse_cli(argc, argv);
    std::printf("DelayUnit tuning: security vs cost for secAND2-PD\n");
    std::printf("(24 parallel gadgets, continuous operation, 12000 traces)\n\n");
    TablePrinter table({"DelayUnit [LUTs]", "max|t1|", "max|t2|",
                        "1st order", "total LUTs"});
    constexpr unsigned kUnits[] = {1u, 2u, 4u, 7u, 10u};
    constexpr std::size_t kTraces = 12000;
    constexpr std::size_t kSweepSize = sizeof kUnits / sizeof kUnits[0];

    eval::CampaignRunOptions run_options;
    run_options.report_path = cli.report_path;
    std::uint64_t payload = eval::kFnvOffset;
    payload = eval::fnv1a64(payload, /*gadgets=*/24);
    for (const unsigned unit : kUnits) payload = eval::fnv1a64(payload, unit);
    const eval::CampaignFingerprint fingerprint{
        eval::fnv1a64_tag("delay_tuning"), /*seed=*/31, kSweepSize * kTraces,
        kTraces, payload};
    eval::RunTelemetrySession session("delay_tuning", run_options, fingerprint,
                                      kSweepSize * kTraces, /*workers=*/1,
                                      /*lanes=*/1);

    double first = 0.0;
    double last = 0.0;
    for (const unsigned unit : kUnits) {
        const SweepPoint p = run_size(unit, kTraces, session.meter());
        if (unit == 1) first = p.t1;
        last = p.t1;
        table.add_row({std::to_string(unit), TablePrinter::num(p.t1),
                       TablePrinter::num(p.t2),
                       p.t1 > 4.5 ? "LEAKS" : "no leak",
                       std::to_string(p.luts)});
        const std::string tag = "unit" + std::to_string(unit);
        session.add_metric(tag + "_max_abs_t1", p.t1);
        session.add_metric(tag + "_max_abs_t2", p.t2);
        session.add_metric(tag + "_luts", static_cast<double>(p.luts));
    }
    table.print();
    std::printf(
        "\nThe trade-off of paper Sec. V: leakage falls as the DelayUnit\n"
        "grows past the routing jitter, while the LUT cost rises; 10 LUTs\n"
        "is the paper's sweet spot.\n");
    eval::CampaignProgress progress;
    progress.completed_blocks = kSweepSize;
    progress.completed_traces = kSweepSize * kTraces;
    session.finish(progress);
    if (session.writes_report())
        std::printf("Run report: %s\n", session.report_path().c_str());
    return (first > last) ? 0 : 1;
}

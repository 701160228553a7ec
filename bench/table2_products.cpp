// Reproduces paper Table II: the path-delay schedules for products of 3
// and 4 shared variables, and validates them.
//
// Three checks per product size:
//  1. the generated schedule equals the paper's Table II row;
//  2. the secAND2-PD chain computes the product correctly under glitchy
//     timing simulation;
//  3. TVLA: with the Table II schedule there is no first-order leakage,
//     while an unsafe variant in which the x operand arrives after all
//     y shares leaks -- the paper's safety argument.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/composition.hpp"
#include "core/sharing.hpp"
#include "eval/campaign.hpp"
#include "leakage/moment_bank.hpp"
#include "power/power_model.hpp"
#include "sim/clocked.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

using namespace glitchmask;
using core::MaskedBit;
using core::SharedBus;
using core::SharedNet;

namespace {

struct ProductHarness {
    core::Netlist nl;
    SharedBus in;       // primary inputs
    SharedNet out{};
};

/// Registered product chain with either the Table II schedule or an
/// unsafe x-last one, replicated for SNR.
ProductHarness build(unsigned n, bool safe_schedule, unsigned replicas) {
    ProductHarness h;
    h.in = core::shared_input_bus(h.nl, "v", n);
    SharedBus registered(n);
    for (unsigned i = 0; i < n; ++i)
        registered[i] = core::reg_shares(h.nl, h.in[i]);

    const core::DelaySchedule schedule = core::table2_schedule(n);
    for (unsigned k = 0; k < replicas; ++k) {
        core::Netlist::Scope scope(h.nl, "rep" + std::to_string(k));
        SharedBus delayed(n);
        for (unsigned i = 0; i < n; ++i) {
            unsigned d0 = schedule.share0[i];
            unsigned d1 = schedule.share1[i];
            if (!safe_schedule && i == 0) {
                // Unsafe variant: the x operand (v0) arrives after every y
                // share -- the Table I hazard (an x share evaluating on the
                // combined y0/y1 reveals the unshared y).
                d0 = d1 = 2 * (n - 1) + 1;
            }
            delayed[i] = core::delay_shared(h.nl, registered[i], d0, d1, 10,
                                            "v" + std::to_string(i))
                             .out;
        }
        SharedNet acc = delayed[0];
        for (unsigned i = 1; i < n; ++i)
            acc = core::secand2(h.nl, acc, delayed[i],
                                "g" + std::to_string(i));
        h.out = acc;
    }
    h.nl.freeze();
    return h;
}

struct ProductResult {
    bool correct = true;
    double max_abs_t1 = 0.0;
};

ProductResult evaluate(unsigned n, bool safe_schedule, std::size_t traces) {
    const unsigned replicas = 12;
    ProductHarness h = build(n, safe_schedule, replicas);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    sim::ClockConfig clock;
    clock.period_ps = 90000;
    sim::ClockedSim simulator(h.nl, dm, clock);
    power::PowerConfig power_config;
    power_config.bin_ps = clock.period_ps;
    power::PowerRecorder recorder(h.nl, power_config);
    simulator.engine().set_sink(&recorder);

    constexpr std::size_t kCycles = 5;  // two consecutive products
    leakage::MomentBank campaign(kCycles, 1);
    Xoshiro256 rng(11);
    Xoshiro256 noise(12);
    ProductResult result;

    for (std::size_t t = 0; t < traces; ++t) {
        const bool fixed = rng.bit();
        simulator.restart();
        recorder.begin_trace(kCycles);
        bool expected = true;
        for (int op = 0; op < 2; ++op) {
            const bool classed = (op == 1);
            expected = true;
            for (unsigned i = 0; i < n; ++i) {
                const bool v = (classed && fixed) ? true : rng.bit();
                expected = expected && v;
                const MaskedBit m = core::mask_bit(v, rng);
                simulator.set_input(h.in[i].s0, m.s0);
                simulator.set_input(h.in[i].s1, m.s1);
            }
            simulator.step(2);
        }
        const bool z = simulator.value(h.out.s0) != simulator.value(h.out.s1);
        result.correct = result.correct && (z == expected);
        campaign.add_trace(fixed, recorder.noisy_trace(noise, 0.5));
    }
    result.max_abs_t1 = campaign.max_abs_t(1);
    return result;
}

std::string schedule_string(unsigned n) {
    const core::DelaySchedule s = core::table2_schedule(n);
    std::string out;
    for (unsigned i = 0; i < n; ++i) {
        if (!out.empty()) out += ' ';
        out += "v" + std::to_string(i) + ":(" + std::to_string(s.share0[i]) +
               "," + std::to_string(s.share1[i]) + ")";
    }
    return out;
}

}  // namespace

int main() {
    bench::banner("Table II: delay sequences for products of 3 / 4 variables");

    std::printf("Schedules in DelayUnits (share0, share1) per variable:\n");
    std::printf("  n=3: %s   (paper: c0->b0->a0,a1->b1->c1)\n",
                schedule_string(3).c_str());
    std::printf("  n=4: %s   (paper: d0->c0->b0->a0,a1->b1->c1->d1)\n\n",
                schedule_string(4).c_str());

    const std::size_t traces = bench::scaled_traces(6000);
    std::printf("traces per configuration: %zu\n\n", traces);

    TablePrinter table({"product", "schedule", "functionally correct",
                        "max|t1|", "verdict"});
    CsvWriter csv("table2_products.csv",
                  {"n", "safe_schedule", "correct", "max_abs_t1"});
    bool all_as_expected = true;
    for (const unsigned n : {3u, 4u}) {
        for (const bool safe : {true, false}) {
            const ProductResult r = evaluate(n, safe, traces);
            table.add_row({"z = v0*...*v" + std::to_string(n - 1),
                           safe ? "Table II" : "x-last (unsafe)",
                           r.correct ? "yes" : "NO",
                           TablePrinter::num(r.max_abs_t1),
                           bench::verdict(r.max_abs_t1)});
            csv.row({static_cast<double>(n), safe ? 1.0 : 0.0,
                     r.correct ? 1.0 : 0.0, r.max_abs_t1});
            const bool leaks = r.max_abs_t1 > leakage::kTvlaThreshold;
            all_as_expected = all_as_expected && r.correct && (leaks != safe);
        }
    }
    table.print();
    std::printf(
        "\nExpected: Table II schedules compute correctly with no first-order\n"
        "leak; making the x operand arrive last leaks (paper Sec. III-B).\n");
    std::printf("CSV: table2_products.csv\n");
    return all_as_expected ? 0 : 1;
}

// Ablation bench: the masked-AND design space, measured under one
// identical campaign.
//
// This is the comparison the paper's Sec. II argues in prose: every
// masked-AND gadget in the library -- the naive secAND2 mapping, the
// paper's two solutions, the Trichina gate, and the DOM baselines -- runs
// the same registered-inputs / fixed-vs-random TVLA, and the table lists
// the cost axes the paper trades off: area, fresh randomness, latency,
// and first/second-order leakage.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/gadgets.hpp"
#include "core/sharing.hpp"
#include "leakage/moment_bank.hpp"
#include "netlist/area.hpp"
#include "power/power_model.hpp"
#include "sim/clocked.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

using namespace glitchmask;
using core::SharedNet;

namespace {

enum class Kind { Naive, Ff, Pd, Trichina, DomIndep, DomDep };

struct Spec {
    Kind kind;
    const char* name;
    const char* description;
    unsigned fresh_bits;
    unsigned latency_cycles;  // input-register edge to valid output
};

constexpr Spec kZoo[] = {
    {Kind::Naive, "secAND2 (naive)", "Eq. 2 mapped directly, no ordering", 0, 1},
    {Kind::Ff, "secAND2-FF", "internal y1 flop (Fig. 2)", 0, 2},
    {Kind::Pd, "secAND2-PD", "DelayUnit arrival order (Fig. 3)", 0, 1},
    {Kind::Trichina, "Trichina AND", "Eq. 1, order-sensitive XOR chain", 1, 1},
    {Kind::DomIndep, "DOM-indep", "registered domain crossings", 1, 2},
    {Kind::DomDep, "DOM-dep", "refresh + register + DOM", 3, 3},
};

struct Harness {
    core::Netlist nl;
    SharedNet x_in{}, y_in{};
    std::vector<netlist::NetId> rand_in;
    double gadget_ge = 0.0;
};

Harness build(const Spec& spec, unsigned replicas) {
    Harness h;
    h.x_in = core::shared_input(h.nl, "x");
    h.y_in = core::shared_input(h.nl, "y");
    for (unsigned i = 0; i < spec.fresh_bits; ++i)
        h.rand_in.push_back(h.nl.input("r" + std::to_string(i)));
    const SharedNet x = core::reg_shares(h.nl, h.x_in, 1);
    const SharedNet y = core::reg_shares(h.nl, h.y_in, 1);
    std::vector<netlist::NetId> rand_regs;
    for (const netlist::NetId r : h.rand_in)
        rand_regs.push_back(h.nl.dff(r, 1));

    const double ge_before =
        netlist::total_ge(h.nl, netlist::AreaModel::nangate45());
    for (unsigned k = 0; k < replicas; ++k) {
        const std::string name = "g" + std::to_string(k);
        switch (spec.kind) {
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
    h.gadget_ge =
        (netlist::total_ge(h.nl, netlist::AreaModel::nangate45()) - ge_before) /
        replicas;
    h.nl.freeze();
    return h;
}

struct ZooResult {
    double t1 = 0.0;
    double t2 = 0.0;
    double ge = 0.0;
};

ZooResult run(const Spec& spec, std::size_t traces) {
    Harness h = build(spec, 16);
    const sim::DelayModel dm(h.nl, sim::DelayConfig::spartan6());
    sim::ClockConfig clock;
    clock.period_ps = 90000;
    sim::ClockedSim sim(h.nl, dm, clock);
    power::PowerRecorder recorder(h.nl,
                                  power::PowerConfig{.bin_ps = clock.period_ps});
    sim.engine().set_sink(&recorder);

    constexpr std::size_t kCycles = 5;
    leakage::MomentBank campaign(kCycles, 2);
    Xoshiro256 rng(55);
    Xoshiro256 noise(56);
    for (std::size_t t = 0; t < traces; ++t) {
        const bool fixed = rng.bit();
        const core::MaskedBit mx = core::mask_bit(fixed ? true : rng.bit(), rng);
        const core::MaskedBit my = core::mask_bit(fixed ? true : rng.bit(), rng);
        sim.restart();
        recorder.begin_trace(kCycles);
        sim.set_input(h.x_in.s0, mx.s0);
        sim.set_input(h.x_in.s1, mx.s1);
        sim.set_input(h.y_in.s0, my.s0);
        sim.set_input(h.y_in.s1, my.s1);
        for (const netlist::NetId r : h.rand_in) sim.set_input(r, rng.bit());
        sim.step();
        sim.set_enable(1, true);
        sim.step();
        sim.set_enable(1, false);
        const bool has_stage2 = h.nl.max_ctrl_group() >= 2;
        if (has_stage2) sim.set_enable(2, true);
        sim.step();
        if (has_stage2) sim.set_enable(2, false);
        sim.step();
        campaign.add_trace(fixed, recorder.noisy_trace(noise, 0.5));
    }
    return ZooResult{campaign.max_abs_t(1), campaign.max_abs_t(2), h.gadget_ge};
}

}  // namespace

int main() {
    bench::banner("Gadget zoo: the masked-AND design space under one campaign");
    const std::size_t traces = bench::scaled_traces(12000);
    std::printf("16 parallel instances per gadget, %zu traces each\n\n", traces);

    TablePrinter table({"gadget", "GE", "fresh bits", "latency", "max|t1|",
                        "max|t2|", "1st order"});
    CsvWriter csv("gadget_zoo.csv",
                  {"gadget", "ge", "fresh_bits", "latency", "t1", "t2"});
    bool paper_gadgets_clean = true;
    bool naive_leaks = false;
    for (const Spec& spec : kZoo) {
        const ZooResult r = run(spec, traces);
        table.add_row({spec.name, TablePrinter::num(r.ge, 1),
                       std::to_string(spec.fresh_bits),
                       std::to_string(spec.latency_cycles) + " cyc",
                       TablePrinter::num(r.t1), TablePrinter::num(r.t2),
                       bench::verdict(r.t1)});
        csv.raw_row({spec.name, TablePrinter::num(r.ge, 2),
                     std::to_string(spec.fresh_bits),
                     std::to_string(spec.latency_cycles),
                     TablePrinter::num(r.t1, 4), TablePrinter::num(r.t2, 4)});
        if (spec.kind == Kind::Naive) naive_leaks = r.t1 > 4.5;
        if (spec.kind == Kind::Ff || spec.kind == Kind::Pd)
            paper_gadgets_clean = paper_gadgets_clean && r.t1 < 4.5;
    }
    table.print();
    std::printf(
        "\nThe paper's trade-off in one table: secAND2-FF/PD reach the same\n"
        "first-order verdict as DOM with zero fresh randomness; the naive\n"
        "mapping of the same equations leaks; secAND2-PD pays in area\n"
        "(DelayUnits), DOM pays in randomness.  GE excludes the shared\n"
        "input registers; secAND2-PD includes its DelayUnit chains.\n");
    std::printf("CSV: gadget_zoo.csv\n");
    return (naive_leaks && paper_gadgets_clean) ? 0 : 1;
}

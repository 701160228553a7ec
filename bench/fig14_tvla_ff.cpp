// Reproduces paper Fig. 14: leakage assessment of the protected DES
// design using secAND2-FF.
//
//   (a) PRNG off: all masks and refresh bits zero -> massive first-order
//       leakage with very few traces (paper: 12k; here: a few hundred).
//   (b)-(d) PRNG on, three different fixed plaintexts: no first-order
//       leakage, clear second-order leakage (2-share design), and the
//       paper's consistency rule applied across the three campaigns.
//
// Paper: 50M traces per test on a Spartan-6.  Here: simulated power with
// small synthetic noise; the default 3000 traces per test give the same
// verdicts (see EXPERIMENTS.md for the trace-count mapping).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "des/masked_des.hpp"
#include "eval/des_experiments.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

using namespace glitchmask;

int main() {
    bench::banner("Fig. 14: TVLA of protected DES using secAND2-FF");

    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::size_t prng_off_traces = bench::scaled_traces(400);
    const std::size_t prng_on_traces = bench::scaled_traces(3000);

    TablePrinter table({"test", "traces", "max|t1|", "max|t2|", "max|t3|",
                        "1st-order verdict"});
    CsvWriter csv("fig14_tvla_ff.csv",
                  {"test", "order", "cycle", "t"});

    // (a) PRNG off sanity check.
    {
        eval::DesTvlaConfig config;
        config.traces = prng_off_traces;
        config.prng_on = false;
        config.seed = 101;
        const eval::DesTvlaResult r = eval::run_des_tvla(core, config);
        table.add_row({"Fig14a PRNG off", std::to_string(r.traces),
                       TablePrinter::num(r.max_abs_t[1]),
                       TablePrinter::num(r.max_abs_t[2]),
                       TablePrinter::num(r.max_abs_t[3]),
                       bench::verdict(r.max_abs_t[1])});
        for (int order = 1; order <= 3; ++order) {
            const std::vector<double> curve = r.campaign.t_curve(order);
            for (std::size_t c = 0; c < curve.size(); ++c)
                csv.raw_row({"prng_off", std::to_string(order),
                             std::to_string(c), TablePrinter::num(curve[c], 4)});
        }
    }

    // (b)-(d) PRNG on, three fixed plaintexts.
    const std::uint64_t plaintexts[3] = {0xDA39A3EE5E6B4B0Dull,
                                         0x0123456789ABCDEFull,
                                         0xA5A5A5A55A5A5A5Aull};
    std::vector<leakage::TvlaCampaign> campaigns;
    bool any_first_order = false;
    for (int p = 0; p < 3; ++p) {
        eval::DesTvlaConfig config;
        config.traces = prng_on_traces;
        config.fixed_plaintext = plaintexts[p];
        config.seed = 202 + static_cast<std::uint64_t>(p);
        const eval::DesTvlaResult r = eval::run_des_tvla(core, config);
        const std::string name = std::string("Fig14") +
                                 static_cast<char>('b' + p) + " plaintext " +
                                 std::to_string(p + 1);
        table.add_row({name, std::to_string(r.traces),
                       TablePrinter::num(r.max_abs_t[1]),
                       TablePrinter::num(r.max_abs_t[2]),
                       TablePrinter::num(r.max_abs_t[3]),
                       bench::verdict(r.max_abs_t[1])});
        any_first_order |= r.max_abs_t[1] > leakage::kTvlaThreshold;
        for (int order = 1; order <= 3; ++order) {
            const std::vector<double> curve = r.campaign.t_curve(order);
            for (std::size_t c = 0; c < curve.size(); ++c)
                csv.raw_row({"pt" + std::to_string(p + 1),
                             std::to_string(order), std::to_string(c),
                             TablePrinter::num(curve[c], 4)});
        }
        campaigns.push_back(r.campaign.to_campaign());
    }
    table.print();

    const std::vector<std::size_t> consistent =
        leakage::consistent_exceedances(campaigns, 1);
    std::printf(
        "\nConsistency rule (paper Sec. VII-A): %zu time indexes exceed the\n"
        "threshold in ALL three campaigns -> implementation deemed %s at\n"
        "first order.  Second-order leakage is clearly present, as the paper\n"
        "observes for any 2-share design.\n",
        consistent.size(), consistent.empty() ? "NOT leaky" : "LEAKY");
    std::printf("CSV: fig14_tvla_ff.csv\n");
    return consistent.empty() ? 0 : 1;
}

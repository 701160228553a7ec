// Reproduces paper Fig. 17: leakage assessment of the protected DES
// design using secAND2-PD with the optimal 10-LUT DelayUnit.
//
//   (d) PRNG off: strong first-order leakage with very few traces
//       (paper: 33k; here: a few hundred).
//   (a)-(c) PRNG on, three fixed plaintexts.  The paper observes marginal
//       first-order excursions past +-4.5 (around 15M traces) and
//       attributes them to physical *coupling* between the long parallel
//       delay chains (Sec. VII-C).  We run each campaign twice: with the
//       coupling models disabled (clean, like an ideal layout) and with
//       the Miller energy + timing coupling enabled (the excursions
//       appear) -- directly exercising the paper's explanation.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "des/masked_des.hpp"
#include "eval/des_experiments.hpp"
#include "support/csv.hpp"
#include "support/env.hpp"
#include "support/table.hpp"

using namespace glitchmask;

int main() {
    bench::banner("Fig. 17: TVLA of protected DES using secAND2-PD (10 LUTs)");

    des::MaskedDesOptions options;
    options.flavor = des::CoreFlavor::PD;
    options.delayunit_luts = 10;
    options.couple_adjacent = true;
    const des::MaskedDesCore core(options);

    const std::size_t prng_off_traces = bench::scaled_traces(400);
    const std::size_t prng_on_traces = bench::scaled_traces(3000);
    const double epsilon = env_double("GLITCHMASK_COUPLING_EPSILON", 2.0);

    TablePrinter table({"test", "coupling", "traces", "max|t1|", "max|t2|",
                        "1st-order verdict"});
    CsvWriter csv("fig17_tvla_pd.csv",
                  {"test", "coupling", "order", "cycle", "t"});

    auto emit_curves = [&csv](const eval::DesTvlaResult& r, const char* test,
                              const char* coupling) {
        for (int order = 1; order <= 3; ++order) {
            const std::vector<double> curve = r.campaign.t_curve(order);
            for (std::size_t c = 0; c < curve.size(); ++c)
                csv.raw_row({test, coupling, std::to_string(order),
                             std::to_string(c),
                             TablePrinter::num(curve[c], 4)});
        }
    };

    // (d) PRNG off sanity check.
    {
        eval::DesTvlaConfig config;
        config.traces = prng_off_traces;
        config.prng_on = false;
        config.seed = 404;
        const eval::DesTvlaResult r = eval::run_des_tvla(core, config);
        table.add_row({"Fig17d PRNG off", "off", std::to_string(r.traces),
                       TablePrinter::num(r.max_abs_t[1]),
                       TablePrinter::num(r.max_abs_t[2]),
                       bench::verdict(r.max_abs_t[1])});
        emit_curves(r, "prng_off", "off");
    }

    const std::uint64_t plaintexts[3] = {0xDA39A3EE5E6B4B0Dull,
                                         0x0123456789ABCDEFull,
                                         0xA5A5A5A55A5A5A5Aull};
    std::vector<leakage::MomentBank> coupled_campaigns;
    double max_t1_ideal = 0.0;
    double max_t1_coupled = 0.0;
    for (int p = 0; p < 3; ++p) {
        const std::string base_name = std::string("Fig17") +
                                      static_cast<char>('a' + p) +
                                      " plaintext " + std::to_string(p + 1);
        for (const bool coupled : {false, true}) {
            eval::DesTvlaConfig config;
            config.traces = prng_on_traces;
            config.fixed_plaintext = plaintexts[p];
            config.seed = 505 + static_cast<std::uint64_t>(p);
            if (coupled) {
                config.coupling.timing_enabled = true;
                config.coupling_epsilon = epsilon;
            }
            eval::DesTvlaResult r = eval::run_des_tvla(core, config);
            table.add_row({base_name, coupled ? "on" : "off",
                           std::to_string(r.traces),
                           TablePrinter::num(r.max_abs_t[1]),
                           TablePrinter::num(r.max_abs_t[2]),
                           bench::verdict(r.max_abs_t[1])});
            emit_curves(r, ("pt" + std::to_string(p + 1)).c_str(),
                        coupled ? "on" : "off");
            if (coupled) {
                max_t1_coupled = std::max(max_t1_coupled, r.max_abs_t[1]);
                coupled_campaigns.push_back(std::move(r.campaign));
            } else {
                max_t1_ideal = std::max(max_t1_ideal, r.max_abs_t[1]);
            }
        }
    }
    table.print();

    const std::vector<std::size_t> consistent =
        leakage::consistent_exceedances(coupled_campaigns, 1);
    std::printf(
        "\nWith an ideal layout (coupling off) the PD core shows no\n"
        "first-order leakage; enabling the physical coupling models\n"
        "(Miller energy epsilon=%.2f + data-dependent chain timing) makes\n"
        "the first-order t-statistic exceed +-4.5 (%zu consistent indexes\n"
        "across plaintexts) -- the paper's Sec. VII-C explanation for the\n"
        "residual leakage it sees around 15M traces.\n",
        epsilon, consistent.size());
    std::printf("CSV: fig17_tvla_pd.csv\n");

    const bool shape_holds = max_t1_ideal < leakage::kTvlaThreshold &&
                             max_t1_coupled > leakage::kTvlaThreshold;
    return shape_holds ? 0 : 1;
}

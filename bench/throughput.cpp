// Microbenchmarks of the methodology itself (google-benchmark): event-
// simulation throughput, masked-DES encryption rate in both engines, the
// reference cipher, and the streaming leakage statistics.  These are the
// numbers that determine how far the TVLA campaigns of the fig* benches
// can be scaled.
#include <benchmark/benchmark.h>

#include "core/gadgets.hpp"
#include "des/des_reference.hpp"
#include "des/masked_des.hpp"
#include "leakage/moments.hpp"
#include "leakage/moment_bank.hpp"
#include "power/power_model.hpp"
#include "sim/clocked.hpp"
#include "sim/functional.hpp"
#include "support/rng.hpp"

using namespace glitchmask;

namespace {

void BM_ReferenceDesEncrypt(benchmark::State& state) {
    Xoshiro256 rng(1);
    std::uint64_t pt = rng();
    const std::uint64_t key = rng();
    for (auto _ : state) {
        pt = des::encrypt_block(pt, key);
        benchmark::DoNotOptimize(pt);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReferenceDesEncrypt);

void BM_EventSimSboxSettle(benchmark::State& state) {
    // One masked FF S-box worth of netlist, random stimulus per iteration.
    core::Netlist nl;
    const core::SharedBus in = core::shared_input_bus(nl, "x", 6);
    std::vector<core::SharedNet> gadgets;
    core::SharedBus regs(6);
    for (unsigned i = 0; i < 6; ++i) regs[i] = core::reg_shares(nl, in[i]);
    for (int g = 0; g < 30; ++g)
        gadgets.push_back(core::secand2(nl, regs[g % 6], regs[(g + 1) % 6],
                                        "g" + std::to_string(g)));
    nl.freeze();
    const sim::DelayModel dm(nl, sim::DelayConfig::spartan6());
    sim::ClockedSim sim(nl, dm);
    Xoshiro256 rng(2);
    std::size_t events = 0;
    for (auto _ : state) {
        for (unsigned i = 0; i < 6; ++i) {
            sim.set_input(in[i].s0, rng.bit());
            sim.set_input(in[i].s1, rng.bit());
        }
        sim.step(2);
        events = sim.engine().processed_events();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.SetLabel("items = simulation events");
}
BENCHMARK(BM_EventSimSboxSettle);

void BM_MaskedDesFfTiming(benchmark::State& state) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const sim::DelayModel dm(core.nl(), sim::DelayConfig::spartan6());
    sim::ClockConfig clock;
    clock.period_ps = core.recommended_period();
    sim::ClockedSim sim(core.nl(), dm, clock);
    power::PowerRecorder recorder(core.nl(), power::PowerConfig{});
    sim.engine().set_sink(&recorder);
    Xoshiro256 rng(3);
    for (auto _ : state) {
        sim.restart();
        recorder.begin_trace(core.total_cycles());
        benchmark::DoNotOptimize(core.encrypt_value(sim, rng(), rng(), &rng));
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("items = traces (glitchy timing sim)");
}
BENCHMARK(BM_MaskedDesFfTiming);

void BM_MaskedDesFfFunctional(benchmark::State& state) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    sim::ZeroDelaySim sim(core.nl());
    Xoshiro256 rng(4);
    for (auto _ : state) {
        sim.restart();
        benchmark::DoNotOptimize(core.encrypt_value(sim, rng(), rng(), &rng));
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("items = encryptions (zero-delay)");
}
BENCHMARK(BM_MaskedDesFfFunctional);

void BM_MomentAccumulatorOrder6(benchmark::State& state) {
    leakage::MomentAccumulator acc(6);
    Xoshiro256 rng(5);
    for (auto _ : state) acc.add(rng.gaussian());
    benchmark::DoNotOptimize(acc.central_moment(6));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MomentAccumulatorOrder6);

void BM_TvlaAddTrace(benchmark::State& state) {
    constexpr std::size_t kSamples = 113;
    leakage::MomentBank campaign(kSamples, 3);
    std::vector<double> trace(kSamples);
    Xoshiro256 rng(6);
    for (double& v : trace) v = rng.gaussian();
    bool cls = false;
    for (auto _ : state) {
        campaign.add_trace(cls, trace);
        cls = !cls;
    }
    state.SetItemsProcessed(state.iterations() * kSamples);
    state.SetLabel("items = sample updates (order-3 moments)");
}
BENCHMARK(BM_TvlaAddTrace);

}  // namespace

BENCHMARK_MAIN();

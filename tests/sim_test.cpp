#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "des/masked_des.hpp"
#include "eval/gadget_tvla.hpp"
#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"
#include "power/power_model.hpp"
#include "sim/clocked.hpp"
#include "sim/delay_model.hpp"
#include "sim/functional.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace glitchmask::sim {
namespace {

using netlist::Bus;
using netlist::CellKind;
using netlist::kNoNet;
using netlist::NetId;
using netlist::Netlist;

/// Records every committed transition.
class RecordingSink final : public ToggleSink {
public:
    struct Toggle {
        NetId net;
        TimePs time;
        bool value;
    };
    void on_toggle(NetId net, TimePs time, bool value) override {
        toggles.push_back({net, time, value});
    }
    [[nodiscard]] int count(NetId net) const {
        int n = 0;
        for (const Toggle& t : toggles) n += (t.net == net);
        return n;
    }
    std::vector<Toggle> toggles;
};

/// Full adder used by several tests: sum = a^b^cin, cout = maj(a,b,cin).
struct FullAdder {
    Netlist nl;
    NetId a, b, cin, sum, cout;
    FullAdder() {
        a = nl.input("a");
        b = nl.input("b");
        cin = nl.input("cin");
        const NetId ab = nl.xor2(a, b);
        sum = nl.xor2(ab, cin);
        const NetId t1 = nl.and2(a, b);
        const NetId t2 = nl.and2(ab, cin);
        cout = nl.or2(t1, t2);
        nl.freeze();
    }
};

TEST(ZeroDelay, FullAdderExhaustive) {
    FullAdder fa;
    ZeroDelaySim sim(fa.nl);
    for (unsigned v = 0; v < 8; ++v) {
        sim.set_input(fa.a, (v & 1) != 0);
        sim.set_input(fa.b, (v & 2) != 0);
        sim.set_input(fa.cin, (v & 4) != 0);
        sim.step();
        const unsigned total = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
        EXPECT_EQ(sim.value(fa.sum), (total & 1) != 0) << "v=" << v;
        EXPECT_EQ(sim.value(fa.cout), total >= 2) << "v=" << v;
    }
}

TEST(ZeroDelay, ConstantsSettleToTheirValue) {
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId pass = nl.and2(a, nl.const1());
    const NetId zero = nl.and2(a, nl.const0());
    nl.freeze();
    ZeroDelaySim sim(nl);
    for (const bool v : {false, true}) {
        sim.set_input(a, v);
        sim.step();
        EXPECT_EQ(sim.value(pass), v);
        EXPECT_FALSE(sim.value(zero));
    }
}

TEST(ZeroDelay, FlopSamplesOnlyWhenEnabled) {
    Netlist nl;
    const NetId d = nl.input("d");
    const NetId q = nl.dff(d, /*enable=*/1);
    nl.freeze();
    ZeroDelaySim sim(nl);
    sim.set_input(d, true);
    sim.step();  // enable off: holds 0 (input applied after sampling)
    EXPECT_FALSE(sim.value(q));
    sim.step();
    EXPECT_FALSE(sim.value(q));
    sim.set_enable(1, true);
    sim.step();
    EXPECT_TRUE(sim.value(q));
    sim.set_enable(1, false);
    sim.set_input(d, false);
    sim.step(3);
    EXPECT_TRUE(sim.value(q));  // held
}

TEST(ZeroDelay, ResetOverridesEnable) {
    Netlist nl;
    const NetId d = nl.input("d");
    const NetId q = nl.dff(d, /*enable=*/1, /*reset=*/2);
    nl.freeze();
    ZeroDelaySim sim(nl);
    sim.set_enable(1, true);
    sim.set_input(d, true);
    sim.step(2);
    EXPECT_TRUE(sim.value(q));
    sim.set_reset(2, true);
    sim.step();
    EXPECT_FALSE(sim.value(q));
}

TEST(ZeroDelay, CounterFeedback) {
    // Toggle flop: q <= !q every cycle.
    Netlist nl;
    const NetId q = nl.dff_floating();
    const NetId nq = nl.inv(q);
    nl.connect_flop(q, nq);
    nl.freeze();
    ZeroDelaySim sim(nl);
    for (int cycle = 0; cycle < 6; ++cycle) {
        EXPECT_EQ(sim.value(q), cycle % 2 == 1) << "cycle=" << cycle;
        sim.step();
    }
}

TEST(EventSim, InitializeComputesConsistentState) {
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId n = nl.inv(a);
    const NetId k = nl.xnor2(a, n);
    nl.freeze();
    const DelayModel dm(nl, DelayConfig::spartan6());
    EventSimulator sim(nl, dm);
    EXPECT_FALSE(sim.value(a));
    EXPECT_TRUE(sim.value(n));   // inv(0) = 1 settled without events
    EXPECT_FALSE(sim.value(k));  // xnor(0,1) = 0
}

TEST(EventSim, SteadyStateMatchesZeroDelay) {
    // Property: after quiescence the event simulator's settled values must
    // equal the functional simulator's, for random DAGs and random inputs.
    Xoshiro256 rng(2024);
    for (int trial = 0; trial < 20; ++trial) {
        Netlist nl;
        std::vector<NetId> pool;
        Bus inputs = netlist::input_bus(nl, "in", 6);
        for (const NetId i : inputs) pool.push_back(i);
        for (int g = 0; g < 40; ++g) {
            const NetId a = pool[rng.below(pool.size())];
            const NetId b = pool[rng.below(pool.size())];
            NetId out = kNoNet;
            switch (rng.below(6)) {
                case 0: out = nl.and2(a, b); break;
                case 1: out = nl.or2(a, b); break;
                case 2: out = nl.xor2(a, b); break;
                case 3: out = nl.nand2(a, b); break;
                case 4: out = nl.inv(a); break;
                default: out = nl.xnor2(a, b); break;
            }
            pool.push_back(out);
        }
        nl.freeze();

        DelayConfig config = DelayConfig::spartan6();
        config.seed = 77 + trial;
        const DelayModel dm(nl, config);
        EventSimulator esim(nl, dm);
        ZeroDelaySim zsim(nl);

        const std::uint64_t stimulus = rng.bits(6);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const bool v = ((stimulus >> i) & 1) != 0;
            esim.drive(inputs[i], v, 0);
            zsim.set_input(inputs[i], v);
        }
        esim.run_to_quiescence();
        zsim.step();
        for (const NetId net : pool)
            ASSERT_EQ(esim.value(net), zsim.value(net))
                << "trial=" << trial << " net=" << net;
    }
}

TEST(EventSim, ReconvergentPathGlitches) {
    // z = xor(a, delay_chain(a)): a single input transition must produce a
    // transient pulse on z (two commits) because the two paths reconverge
    // with very different delays.
    Netlist nl;
    const NetId a = nl.input("a");
    const netlist::DelayChain slow = netlist::delay_units(nl, a, 1, 10);
    const NetId z = nl.xor2(a, slow.out);
    nl.freeze();
    const DelayModel dm(nl, DelayConfig::deterministic());
    EventSimulator sim(nl, dm);
    RecordingSink sink;
    sim.set_sink(&sink);
    sim.drive(a, true, 1000);
    sim.run_to_quiescence();
    EXPECT_EQ(sink.count(z), 2) << "expected a glitch pulse on z";
    EXPECT_FALSE(sim.value(z));  // settles back to 0
}

TEST(EventSim, NoGlitchWhenPathsBalanced) {
    // z = xor(a, buf(a)) with deterministic delays: the buffer skew still
    // produces a 150 ps pulse -- but z through two *identical* delay
    // chains cancels to zero observable pulse only in value, not timing.
    // The meaningful no-glitch case: single path, z = inv(a).
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId z = nl.inv(a);
    nl.freeze();
    const DelayModel dm(nl, DelayConfig::deterministic());
    EventSimulator sim(nl, dm);
    RecordingSink sink;
    sim.set_sink(&sink);
    sim.drive(a, true, 1000);
    sim.run_to_quiescence();
    EXPECT_EQ(sink.count(z), 1);
    EXPECT_FALSE(sim.value(z));
}

TEST(EventSim, ArrivalOrderFollowsWireDelays) {
    // With randomized wire delays two fanout branches of the same source
    // see the transition at different times; the later XOR input produces
    // the final commit.  We only check that total commits stay bounded
    // and the settled value is correct.
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId b = nl.input("b");
    const NetId z = nl.xor2(a, b);
    nl.freeze();
    DelayConfig config = DelayConfig::spartan6();
    config.seed = 5;
    const DelayModel dm(nl, config);
    EventSimulator sim(nl, dm);
    RecordingSink sink;
    sim.set_sink(&sink);
    sim.drive(a, true, 0);
    sim.drive(b, true, 5000);  // well beyond any inertial window
    sim.run_to_quiescence();
    // a and b arrive skewed: z pulses to 1 and back to 0.
    EXPECT_EQ(sink.count(z), 2);
    EXPECT_FALSE(sim.value(z));
}

TEST(EventSim, RunUntilStopsBeforeBoundary) {
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId z = nl.inv(a);
    nl.freeze();
    const DelayModel dm(nl, DelayConfig::deterministic());
    EventSimulator sim(nl, dm);
    sim.drive(a, true, 5000);
    sim.run_until(5000);  // strictly-before semantics
    EXPECT_FALSE(sim.value(a));
    sim.run_until(10000);
    EXPECT_TRUE(sim.value(a));
    EXPECT_FALSE(sim.value(z));
}

TEST(Clocked, RegisterPipeline) {
    Netlist nl;
    const NetId d = nl.input("d");
    const NetId q1 = nl.dff(d, 0, 0, "q1");
    const NetId q2 = nl.dff(q1, 0, 0, "q2");
    nl.freeze();
    const DelayModel dm(nl, DelayConfig::spartan6());
    ClockedSim sim(nl, dm);
    sim.set_input(d, true);
    sim.step();  // input launches after this edge
    EXPECT_FALSE(sim.value(q1));
    sim.step();  // q1 samples the new input
    EXPECT_TRUE(sim.value(q1));
    EXPECT_FALSE(sim.value(q2));
    sim.step();
    EXPECT_TRUE(sim.value(q2));
}

TEST(Clocked, MatchesZeroDelayOnSequentialCircuit) {
    // LFSR-ish: s0 <= s1, s1 <= s0 ^ in.
    Netlist nl;
    const NetId in = nl.input("in");
    const NetId s0 = nl.dff_floating(0, 0, "s0");
    const NetId s1 = nl.dff_floating(0, 0, "s1");
    nl.connect_flop(s0, s1);
    const NetId fb = nl.xor2(s0, in);
    nl.connect_flop(s1, fb);
    nl.freeze();

    const DelayModel dm(nl, DelayConfig::spartan6());
    ClockedSim csim(nl, dm);
    ZeroDelaySim zsim(nl);
    Xoshiro256 rng(3);
    for (int cycle = 0; cycle < 40; ++cycle) {
        const bool v = rng.bit();
        csim.set_input(in, v);
        zsim.set_input(in, v);
        csim.step();
        zsim.step();
        ASSERT_EQ(csim.value(s0), zsim.value(s0)) << "cycle " << cycle;
        ASSERT_EQ(csim.value(s1), zsim.value(s1)) << "cycle " << cycle;
    }
}

TEST(Clocked, EnableGroupsStartDisabled) {
    Netlist nl;
    const NetId d = nl.input("d");
    const NetId q = nl.dff(d, /*enable=*/2);
    nl.freeze();
    const DelayModel dm(nl, DelayConfig::spartan6());
    ClockedSim sim(nl, dm);
    sim.set_input(d, true);
    sim.step(3);
    EXPECT_FALSE(sim.value(q));
    sim.set_enable(2, true);
    sim.step();
    EXPECT_TRUE(sim.value(q));
}

TEST(Clocked, RestartReturnsToResetState) {
    Netlist nl;
    const NetId d = nl.input("d");
    const NetId q = nl.dff(d);
    nl.freeze();
    const DelayModel dm(nl, DelayConfig::spartan6());
    ClockedSim sim(nl, dm);
    sim.set_input(d, true);
    sim.step(2);
    EXPECT_TRUE(sim.value(q));
    sim.restart();
    EXPECT_EQ(sim.cycle(), 0u);
    EXPECT_FALSE(sim.value(q));
}

TEST(Clocked, ReadAndWriteBuses) {
    Netlist nl;
    const Bus d = netlist::input_bus(nl, "d", 8);
    const Bus q = netlist::register_bank(nl, d);
    nl.freeze();
    const DelayModel dm(nl, DelayConfig::spartan6());
    ClockedSim sim(nl, dm);
    sim.set_input_bus(d, 0xA5);
    sim.step(2);
    EXPECT_EQ(sim.read_bus(q), 0xA5u);
}

TEST(Power, TogglesLandInCycleBins) {
    Netlist nl;
    const NetId d = nl.input("d");
    const NetId q = nl.dff(d);
    (void)nl.inv(q);
    nl.freeze();
    const DelayModel dm(nl, DelayConfig::spartan6());
    ClockedSim sim(nl, dm);
    power::PowerRecorder recorder(nl, power::PowerConfig{});
    recorder.begin_trace(6);
    sim.engine().set_sink(&recorder);

    sim.set_input(d, true);
    sim.step(6);
    const std::vector<double>& trace = recorder.trace();
    ASSERT_EQ(trace.size(), 6u);
    EXPECT_GT(trace[0], 0.0);   // d rises right after the first edge
    EXPECT_GT(trace[1], 0.0);   // q samples and the inverter follows
    EXPECT_EQ(trace[3], 0.0);   // steady state afterwards
    EXPECT_EQ(trace[4], 0.0);
}

TEST(Power, NoisyTraceAddsGaussian) {
    Netlist nl;
    const NetId d = nl.input("d");
    (void)nl.inv(d);
    nl.freeze();
    power::PowerRecorder recorder(nl, power::PowerConfig{});
    recorder.begin_trace(4);
    Xoshiro256 rng(1);
    const std::vector<double> noisy = recorder.noisy_trace(rng, 1.0);
    ASSERT_EQ(noisy.size(), 4u);
    bool any_nonzero = false;
    for (const double v : noisy) any_nonzero |= (v != 0.0);
    EXPECT_TRUE(any_nonzero);
}

TEST(Power, FanoutIncreasesWeight) {
    Netlist nl;
    const NetId a = nl.input("a");
    (void)nl.inv(a);
    (void)nl.inv(a);
    (void)nl.inv(a);
    nl.freeze();
    const DelayModel dm(nl, DelayConfig::deterministic());
    EventSimulator sim(nl, dm);
    power::PowerConfig config;
    config.base_weight = 1.0;
    config.fanout_weight = 0.5;
    power::PowerRecorder recorder(nl, config);
    recorder.begin_trace(1);
    sim.set_sink(&recorder);
    sim.drive(a, true, 0);
    sim.run_to_quiescence();
    // a toggle: 1 + 0.5*3; three inverter toggles: 3 * (1 + 0).
    EXPECT_NEAR(recorder.trace()[0], 2.5 + 3.0, 1e-9);
}

/// FNV-1a 64 over every gate delay and the three wire delays of every
/// cell, as little-endian u32s, in cell order.
std::string delay_digest(const Netlist& nl, std::uint64_t seed) {
    DelayConfig config = DelayConfig::spartan6();
    config.seed = seed;
    const DelayModel dm(nl, config);
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto add = [&h](std::uint32_t v) {
        for (int byte = 0; byte < 4; ++byte) {
            h ^= (v >> (8 * byte)) & 0xFFu;
            h *= 0x100000001b3ull;
        }
    };
    for (netlist::CellId id = 0; id < nl.size(); ++id) {
        add(dm.gate_delay(id));
        for (unsigned pin = 0; pin < 3; ++pin) add(dm.wire_delay(id, pin));
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

TEST(DelayModelGolden, EveryDrawIsPinned) {
    // Every gate and wire delay of the DES FF core and of the secAND2-PD
    // campaign harness under four placement seeds.  The constants were
    // taken before the draws were computed in closed form; a change that
    // moves one moves every simulated waveform.
    const des::MaskedDesCore core;
    const eval::GadgetHarness harness(eval::GadgetKind::Pd, 16, 1);
    struct Pin {
        std::uint64_t seed;
        const char* des;
        const char* gadget;
    };
    constexpr Pin kPins[] = {
        {1, "ba882c803078b98d", "c5638dd05e307994"},
        {2, "a8db270a0c65c3d2", "7c465190435a86ed"},
        {77, "bdbb152624d557c3", "be2d6ca3828959bc"},
        {0xdeadbeef, "f93bed5857de10a5", "b8c9b23af04a5b56"},
    };
    for (const Pin& pin : kPins) {
        SCOPED_TRACE("seed " + std::to_string(pin.seed));
        EXPECT_EQ(delay_digest(core.nl(), pin.seed), pin.des);
        EXPECT_EQ(delay_digest(harness.nl(), pin.seed), pin.gadget);
    }
}

}  // namespace
}  // namespace glitchmask::sim

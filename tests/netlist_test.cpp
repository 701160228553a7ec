#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "netlist/area.hpp"
#include "netlist/builder.hpp"
#include "netlist/lutmap.hpp"
#include "netlist/netlist.hpp"
#include "sim/delay_model.hpp"

namespace glitchmask::netlist {
namespace {

TEST(CellKindTable, PinCounts) {
    EXPECT_EQ(pin_count(CellKind::Input), 0u);
    EXPECT_EQ(pin_count(CellKind::Inv), 1u);
    EXPECT_EQ(pin_count(CellKind::And2), 2u);
    EXPECT_EQ(pin_count(CellKind::Mux2), 3u);
    EXPECT_EQ(pin_count(CellKind::Dff), 1u);
}

TEST(CellKindTable, EvalTruthTables) {
    EXPECT_TRUE(eval_cell(CellKind::And2, true, true));
    EXPECT_FALSE(eval_cell(CellKind::And2, true, false));
    EXPECT_TRUE(eval_cell(CellKind::Or2, false, true));
    EXPECT_TRUE(eval_cell(CellKind::Xor2, true, false));
    EXPECT_FALSE(eval_cell(CellKind::Xor2, true, true));
    EXPECT_TRUE(eval_cell(CellKind::Xnor2, true, true));
    EXPECT_TRUE(eval_cell(CellKind::Nand2, true, false));
    EXPECT_FALSE(eval_cell(CellKind::Nor2, true, false));
    EXPECT_TRUE(eval_cell(CellKind::Inv, false));
    // Mux2: c selects between in0 (c=0) and in1 (c=1).
    EXPECT_FALSE(eval_cell(CellKind::Mux2, false, true, false));
    EXPECT_TRUE(eval_cell(CellKind::Mux2, false, true, true));
}

TEST(Netlist, BuildsAndFreezes) {
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId b = nl.input("b");
    const NetId x = nl.xor2(a, b, "x");
    const NetId y = nl.and2(a, x, "y");
    nl.freeze();

    EXPECT_EQ(nl.size(), 4u);
    EXPECT_EQ(nl.inputs().size(), 2u);
    EXPECT_EQ(nl.fanout(a).size(), 2u);
    EXPECT_EQ(nl.fanout(x).size(), 1u);
    EXPECT_EQ(nl.fanout(x)[0].cell, y);
    EXPECT_EQ(nl.fanout(x)[0].pin, 1u);
    EXPECT_EQ(std::count_if(nl.cells().begin(), nl.cells().end(),
                            [](const Cell& cell) { return !is_source(cell.kind); }),
              2);
    EXPECT_EQ(nl.name(x), "x");
}

TEST(Netlist, RejectsUnconnectedPins) {
    Netlist nl;
    EXPECT_THROW(nl.add(CellKind::And2, 0, kNoNet), std::runtime_error);
}

TEST(Netlist, RejectsForwardReferences) {
    Netlist nl;
    const NetId a = nl.input("a");
    EXPECT_THROW(nl.add(CellKind::Inv, a + 5), std::runtime_error);
}

TEST(Netlist, ConstantsAreShared) {
    Netlist nl;
    EXPECT_EQ(nl.const0(), nl.const0());
    EXPECT_EQ(nl.const1(), nl.const1());
    EXPECT_NE(nl.const0(), nl.const1());
}

TEST(Netlist, FlopFeedbackViaConnect) {
    Netlist nl;
    const NetId q = nl.dff_floating(kAlwaysEnabled, kAlwaysEnabled, "state");
    const NetId next = nl.inv(q, "next");
    nl.connect_flop(q, next);
    nl.freeze();
    EXPECT_EQ(nl.cell(q).in[0], next);
    EXPECT_EQ(nl.flops().size(), 1u);
}

TEST(Netlist, FreezeRejectsFloatingFlops) {
    Netlist nl;
    (void)nl.dff_floating();
    EXPECT_THROW(nl.freeze(), std::runtime_error);
}

TEST(Netlist, ScopesPrefixNamesAndModules) {
    Netlist nl;
    const NetId a = nl.input("a");
    NetId inner = kNoNet;
    {
        Netlist::Scope scope(nl, "sbox0");
        inner = nl.inv(a, "n");
    }
    const NetId outer = nl.inv(a, "m");
    EXPECT_EQ(nl.name(inner), "sbox0/n");
    EXPECT_EQ(nl.name(outer), "m");
    EXPECT_NE(nl.module_of(inner), nl.module_of(outer));
}

TEST(Netlist, NestedScopesCompose) {
    Netlist nl;
    const NetId a = nl.input("a");
    nl.push_scope("des");
    nl.push_scope("sbox3");
    const NetId deep = nl.inv(a, "g");
    nl.pop_scope();
    const NetId mid = nl.inv(a, "h");
    nl.pop_scope();
    EXPECT_EQ(nl.name(deep), "des/sbox3/g");
    EXPECT_EQ(nl.name(mid), "des/h");
}

TEST(Netlist, KindHistogramCounts) {
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId b = nl.input("b");
    (void)nl.xor2(a, b);
    (void)nl.xor2(a, b);
    (void)nl.and2(a, b);
    const auto hist = nl.kind_histogram();
    EXPECT_EQ(hist[static_cast<std::size_t>(CellKind::Input)], 2u);
    EXPECT_EQ(hist[static_cast<std::size_t>(CellKind::Xor2)], 2u);
    EXPECT_EQ(hist[static_cast<std::size_t>(CellKind::And2)], 1u);
}

TEST(Netlist, CtrlGroupsTracked) {
    Netlist nl;
    const NetId a = nl.input("a");
    (void)nl.dff(a, 3, 7);
    EXPECT_EQ(nl.max_ctrl_group(), 7u);
}

TEST(Builder, InputBusAndXorBus) {
    Netlist nl;
    const Bus a = input_bus(nl, "a", 4);
    const Bus b = input_bus(nl, "b", 4);
    const Bus x = xor_bus(nl, a, b);
    EXPECT_EQ(x.size(), 4u);
    EXPECT_EQ(nl.name(a[2]), "a[2]");
    for (const NetId net : x) EXPECT_EQ(nl.cell(net).kind, CellKind::Xor2);
}

TEST(Builder, XorReduceShapes) {
    Netlist nl;
    const Bus a = input_bus(nl, "a", 5);
    const NetId r = xor_reduce(nl, a);
    EXPECT_EQ(nl.cell(r).kind, CellKind::Xor2);
    // 5 leaves need exactly 4 XOR2 cells.
    const auto hist = nl.kind_histogram();
    EXPECT_EQ(hist[static_cast<std::size_t>(CellKind::Xor2)], 4u);
    // Empty reduce returns a constant.
    Netlist nl2;
    const NetId zero = xor_reduce(nl2, {});
    EXPECT_EQ(nl2.cell(zero).kind, CellKind::Const0);
}

TEST(Builder, DelayUnitsChainLength) {
    Netlist nl;
    const NetId a = nl.input("a");
    const DelayChain chain = delay_units(nl, a, 3, 10, "a_delay");
    EXPECT_EQ(chain.stages.size(), 30u);
    EXPECT_EQ(chain.out, chain.stages.back());
    const auto hist = nl.kind_histogram();
    EXPECT_EQ(hist[static_cast<std::size_t>(CellKind::DelayBuf)], 30u);

    const DelayChain none = delay_units(nl, a, 0, 10);
    EXPECT_EQ(none.out, a);
    EXPECT_TRUE(none.stages.empty());
}

TEST(Builder, CoupleChainsPairsStages) {
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId b = nl.input("b");
    const DelayChain ca = delay_units(nl, a, 1, 4);
    const DelayChain cb = delay_units(nl, b, 1, 6);
    couple_chains(nl, ca, cb);
    EXPECT_EQ(nl.coupled_pairs().size(), 4u);
}

TEST(Area, NangateWeightsAccumulate) {
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId b = nl.input("b");
    (void)nl.xor2(a, b);
    (void)nl.and2(a, b);
    (void)nl.dff(a);
    const AreaModel model = AreaModel::nangate45();
    EXPECT_NEAR(total_ge(nl, model), 2.33 + 1.33 + 6.0, 1e-9);
}

TEST(Area, DelayInverterCosting) {
    Netlist nl;
    const NetId a = nl.input("a");
    (void)delay_units(nl, a, 1, 10);
    // Paper: 120 inverters per 10-LUT DelayUnit -> 12 INV per DelayBuf.
    const AreaModel model = AreaModel::nangate45_with_delay_inverters(12.0);
    EXPECT_NEAR(total_ge(nl, model), 10 * 12.0 * 0.67, 1e-6);
    EXPECT_NEAR(total_ge_excluding_delay(nl, model), 0.0, 1e-9);
}

TEST(Area, ModuleBreakdownSplitsTopLevelScopes) {
    Netlist nl;
    const NetId a = nl.input("a");
    {
        Netlist::Scope scope(nl, "sbox");
        (void)nl.xor2(a, a);
    }
    {
        Netlist::Scope scope(nl, "keysched");
        (void)nl.and2(a, a);
        (void)nl.and2(a, a);
    }
    const auto split = area_by_module(nl, AreaModel::nangate45());
    ASSERT_GE(split.size(), 2u);
    bool saw_sbox = false;
    bool saw_key = false;
    for (const auto& entry : split) {
        if (entry.module == "sbox") {
            saw_sbox = true;
            EXPECT_NEAR(entry.ge, 2.33, 1e-9);
        }
        if (entry.module == "keysched") {
            saw_key = true;
            EXPECT_NEAR(entry.ge, 2.66, 1e-9);
        }
    }
    EXPECT_TRUE(saw_sbox);
    EXPECT_TRUE(saw_key);
}

TEST(LutMap, PacksSmallConesIntoOneLut) {
    // y = (a & b) ^ (c | d): 3 gates, 4 leaves -> one LUT6.
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId b = nl.input("b");
    const NetId c = nl.input("c");
    const NetId d = nl.input("d");
    const NetId ab = nl.and2(a, b);
    const NetId cd = nl.or2(c, d);
    (void)nl.xor2(ab, cd);
    nl.freeze();
    const LutMapResult result = estimate_luts(nl, 6);
    EXPECT_EQ(result.luts, 1u);
    EXPECT_EQ(result.ffs, 0u);
}

TEST(LutMap, WideConesSplit) {
    // XOR of 8 inputs: support 8 > 6 -> at least two LUTs.
    Netlist nl;
    const Bus a = input_bus(nl, "a", 8);
    (void)xor_reduce(nl, a);
    nl.freeze();
    const LutMapResult result = estimate_luts(nl, 6);
    EXPECT_GE(result.luts, 2u);
    EXPECT_LE(result.luts, 3u);
}

TEST(LutMap, DelayBufsNeverMerge) {
    Netlist nl;
    const NetId a = nl.input("a");
    const DelayChain chain = delay_units(nl, a, 1, 10);
    (void)nl.inv(chain.out);
    nl.freeze();
    const LutMapResult result = estimate_luts(nl, 6);
    EXPECT_EQ(result.delay_luts, 10u);
    EXPECT_EQ(result.luts, 11u);
}

TEST(LutMap, SharedFanoutBlocksAbsorption) {
    // t = a & b feeds two XORs: t cannot be absorbed into either.
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId b = nl.input("b");
    const NetId c = nl.input("c");
    const NetId t = nl.and2(a, b);
    (void)nl.xor2(t, c);
    (void)nl.xor2(t, a);
    nl.freeze();
    EXPECT_EQ(estimate_luts(nl, 6).luts, 3u);
}

TEST(Sta, ChainDelayAddsUp) {
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId n1 = nl.inv(a);
    const NetId n2 = nl.inv(n1);
    (void)nl.dff(n2);
    nl.freeze();
    const sim::DelayConfig config = sim::DelayConfig::deterministic();
    const sim::DelayModel dm(nl, config);
    const sim::CriticalPath cp = analyze_timing(nl, dm);
    // clk_to_q + 2 * (wire_min + inv) + final wire hop into the flop.
    const sim::TimePs expected =
        config.clk_to_q_ps + 2u * (config.wire_min_ps + 150u) + config.wire_min_ps;
    EXPECT_EQ(cp.delay_ps, expected);
    EXPECT_GT(cp.max_freq_mhz, 0.0);
    EXPECT_FALSE(cp.path.empty());
}

TEST(Sta, DelayChainDominatesCriticalPath) {
    Netlist nl;
    const NetId a = nl.input("a");
    const NetId b = nl.input("b");
    const DelayChain slow = delay_units(nl, a, 4, 10);
    const NetId g = nl.and2(slow.out, b);
    (void)nl.dff(g);
    nl.freeze();
    const sim::DelayModel dm(nl, sim::DelayConfig::deterministic());
    const sim::CriticalPath cp = analyze_timing(nl, dm);
    // 40 DelayBufs at 600 ps dominate: at least 24 ns.
    EXPECT_GT(cp.delay_ps, 24000u);
    EXPECT_LT(cp.max_freq_mhz, 45.0);
}

}  // namespace
}  // namespace glitchmask::netlist

#include "des/masked_sbox.hpp"

#include <array>
#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/builder.hpp"

namespace glitchmask::des {

namespace {

using core::refresh_shares;
using core::secand2;
using netlist::DelayChain;

/// Variable indices (1..4 for x1..x4) selected by a monomial mask,
/// ascending.  Mask bit 3 selects x1 (b4) down to bit 0 selecting x4.
struct MonomialVars {
    std::array<unsigned, 4> var{};
    unsigned count = 0;
};
MonomialVars monomial_vars(std::uint8_t mask) {
    MonomialVars vars;
    for (int bit = 3; bit >= 0; --bit)
        if ((mask >> bit) & 1u)
            vars.var[vars.count++] = 4 - static_cast<unsigned>(bit);
    return vars;
}

/// XOR-stage recombination of one mini S-box coordinate; `terms` is its
/// ANF coefficient set (mini_sbox_anf_bits).
SharedNet mini_coordinate(Netlist& nl, std::uint16_t terms, const SharedBus& x,
                          const std::array<SharedNet, 10>& products) {
    std::array<NetId, 16> s0;
    std::array<NetId, 16> s1;
    std::size_t n = 0;
    for (unsigned mask = 1; mask < 16; ++mask) {
        if (((terms >> mask) & 1u) == 0) continue;
        const SharedNet& term =
            std::popcount(mask) == 1
                ? x[monomial_vars(static_cast<std::uint8_t>(mask)).var[0]]
                : products[product_monomial_index(
                      static_cast<std::uint8_t>(mask))];
        s0[n] = term.s0;
        s1[n] = term.s1;
        ++n;
    }
    NetId out0 = netlist::xor_reduce(nl, std::span(s0).first(n));
    const NetId out1 = netlist::xor_reduce(nl, std::span(s1).first(n));
    if ((terms & 1u) != 0) out0 = nl.inv(out0);  // the constant-1 term
    return SharedNet{out0, out1};
}

/// All 16 mini S-box coordinates ([row][bit]) from the refreshed products.
std::array<std::array<SharedNet, 4>, 4> mini_xor_stage(
    Netlist& nl, unsigned box, const SharedBus& x,
    const std::array<SharedNet, 10>& products) {
    std::array<std::array<SharedNet, 4>, 4> out{};
    for (unsigned row = 0; row < 4; ++row) {
        Netlist::Scope scope(nl, "mini" + std::to_string(row));
        const std::array<std::uint16_t, 4> anf = mini_sbox_anf_bits(box, row);
        for (unsigned bit = 0; bit < 4; ++bit)
            out[row][bit] = mini_coordinate(nl, anf[bit], x, products);
    }
    return out;
}

/// Lazily grown DelayUnit tap chain on one net.
class DelayTaps {
public:
    DelayTaps() = default;
    DelayTaps(Netlist* nl, NetId src, unsigned luts_per_unit, std::string base)
        : nl_(nl), luts_per_unit_(luts_per_unit), base_(std::move(base)) {
        taps_.push_back(src);  // tap 0 = undelayed
    }

    [[nodiscard]] NetId tap(unsigned units) {
        while (taps_.size() <= units) {
            const DelayChain chain = netlist::delay_units(
                *nl_, taps_.back(), 1, luts_per_unit_,
                base_ + ".u" + std::to_string(taps_.size()));
            stages_.insert(stages_.end(), chain.stages.begin(),
                           chain.stages.end());
            taps_.push_back(chain.out);
        }
        return taps_[units];
    }

    [[nodiscard]] const std::vector<NetId>& stages() const noexcept {
        return stages_;
    }

private:
    Netlist* nl_ = nullptr;
    unsigned luts_per_unit_ = 10;
    std::string base_;
    std::vector<NetId> taps_;
    std::vector<NetId> stages_;
};

/// Registers coupling pairs between consecutive tap chains (physically
/// adjacent DelayUnit stacks, paper Fig. 11).
void couple_taps(Netlist& nl, const std::vector<const DelayTaps*>& chains) {
    for (std::size_t i = 0; i + 1 < chains.size(); ++i) {
        const auto& a = chains[i]->stages();
        const auto& b = chains[i + 1]->stages();
        const std::size_t overlap = std::min(a.size(), b.size());
        for (std::size_t s = 0; s < overlap; ++s) nl.couple(a[s], b[s]);
    }
}

}  // namespace

SharedBus build_masked_sbox_ff(Netlist& nl, unsigned box, const SharedBus& in,
                               std::span<const NetId> rand,
                               const SboxFfGroups& groups) {
    if (in.size() != 6)
        throw std::invalid_argument("build_masked_sbox_ff: need 6 input bits");
    if (rand.size() < kRandomBitsPerSbox)
        throw std::invalid_argument("build_masked_sbox_ff: need 14 random bits");
    Netlist::Scope scope(nl, "sbox" + std::to_string(box));

    const SharedBus& x = in;  // caller-registered shares

    // Shared delayed y1 flops (paper Sec. III-A: input registers shared by
    // multiple gadgets).  Layer 1 delays x2/x3/x4 share 1; layer 2 delays
    // the last variable of each triple (x3 or x4).
    std::array<NetId, 5> y1_layer1{};  // index by variable 2..4
    for (unsigned var = 2; var <= 4; ++var)
        y1_layer1[var] = nl.dff(x[var].s1, groups.g_layer1, groups.rst_early,
                                "y1l1_x" + std::to_string(var));
    std::array<NetId, 5> y1_layer2{};
    for (unsigned var = 3; var <= 4; ++var)
        y1_layer2[var] = nl.dff(x[var].s1, groups.g_layer2, groups.rst_late,
                                "y1l2_x" + std::to_string(var));

    // Mini S-box AND stage: 6 pairs, then 4 triples chained on the pairs.
    std::array<SharedNet, 10> products{};
    std::array<SharedNet, 10> pair_products{};  // by monomial index
    for (const std::uint8_t mask : all_product_monomials()) {
        const std::size_t index = product_monomial_index(mask);
        const MonomialVars vars = monomial_vars(mask);
        if (vars.count == 2) {
            const SharedNet y{x[vars.var[1]].s0, y1_layer1[vars.var[1]]};
            products[index] = secand2(nl, x[vars.var[0]], y,
                                      "pair" + std::to_string(index));
            pair_products[index] = products[index];
        } else {
            const std::uint8_t pair_mask =
                static_cast<std::uint8_t>(mask & (mask - 1));  // drop lowest bit
            const SharedNet pair =
                pair_products[product_monomial_index(pair_mask)];
            const unsigned last = vars.var[2];
            const SharedNet y{x[last].s0, y1_layer2[last]};
            products[index] =
                secand2(nl, pair, y, "triple" + std::to_string(index));
        }
    }

    // Refresh layer: 10 fresh bits.
    for (std::size_t i = 0; i < products.size(); ++i)
        products[i] = refresh_shares(nl, products[i], rand[i],
                                     "refresh" + std::to_string(i));

    const auto mini = mini_xor_stage(nl, box, x, products);

    // MUX stage 1: select products of x0/x5, one shared delayed x5.s1 flop.
    const NetId x5s1_ff =
        nl.dff(x[5].s1, groups.g_layer1, groups.rst_early, "y1l1_x5");
    const NetId nx0 = nl.inv(x[0].s0, "nx0");
    const NetId nx5 = nl.inv(x[5].s0, "nx5");
    std::array<SharedNet, 4> sel{};
    for (unsigned row = 0; row < 4; ++row) {
        const SharedNet xa{(row & 2) != 0 ? x[0].s0 : nx0, x[0].s1};
        const SharedNet xb{(row & 1) != 0 ? x[5].s0 : nx5, x5s1_ff};
        sel[row] = secand2(nl, xa, xb, "sel" + std::to_string(row));
        sel[row] = refresh_shares(nl, sel[row], rand[10 + row],
                                  "selref" + std::to_string(row));
        // The synchronization register is an x-operand of stage 2 and must
        // NOT be in the gadget reset group: clearing it at the reset edge
        // would make the stage-2 x shares transition while both old mini
        // shares are still visible through the (also resetting) m1 flops
        // -- exactly the x-share-last hazard of Table I.  Only the
        // y1-delay flops are ever reset.
        sel[row] = core::reg_shares(nl, sel[row], groups.g_sync,
                                    netlist::kAlwaysEnabled,
                                    "selreg" + std::to_string(row));
    }

    // MUX stage 2: 16 secAND2 (select x mini output), delayed-share flops
    // in g_mux2; stage 3: XOR recombination; output register.
    SharedBus out(4);
    for (unsigned bit = 0; bit < 4; ++bit) {
        std::array<NetId, 4> s0;
        std::array<NetId, 4> s1;
        for (unsigned row = 0; row < 4; ++row) {
            const SharedNet& m = mini[row][bit];
            const NetId m1_ff =
                nl.dff(m.s1, groups.g_mux2, groups.rst_late,
                       "m1ff_r" + std::to_string(row) + "b" + std::to_string(bit));
            const SharedNet product =
                secand2(nl, sel[row], SharedNet{m.s0, m1_ff},
                        "mux2_r" + std::to_string(row) + "b" + std::to_string(bit));
            s0[row] = product.s0;
            s1[row] = product.s1;
        }
        const SharedNet combined{netlist::xor_reduce(nl, s0),
                                 netlist::xor_reduce(nl, s1)};
        out[bit] = core::reg_shares(nl, combined, groups.g_out,
                                    netlist::kAlwaysEnabled,
                                    "out" + std::to_string(bit));
    }
    return out;
}

SharedBus build_masked_sbox_pd(Netlist& nl, unsigned box, const SharedBus& in,
                               std::span<const NetId> rand,
                               const SboxPdGroups& groups,
                               const SboxPdOptions& options) {
    if (in.size() != 6)
        throw std::invalid_argument("build_masked_sbox_pd: need 6 input bits");
    if (rand.size() < kRandomBitsPerSbox)
        throw std::invalid_argument("build_masked_sbox_pd: need 14 random bits");
    Netlist::Scope scope(nl, "sbox" + std::to_string(box));

    const SharedBus& x = in;  // caller-registered shares
    std::vector<const DelayTaps*> all_chains;

    // Global Table-II-style schedule over x1..x4: share 0 of x_i delayed
    // by 4-i units, share 1 by 2+i units (see header for the rationale).
    std::array<DelayTaps, 5> taps0;
    std::array<DelayTaps, 5> taps1;
    for (unsigned var = 1; var <= 4; ++var) {
        taps0[var] = DelayTaps(&nl, x[var].s0, options.luts_per_unit,
                               "d_x" + std::to_string(var) + "s0");
        taps1[var] = DelayTaps(&nl, x[var].s1, options.luts_per_unit,
                               "d_x" + std::to_string(var) + "s1");
    }
    auto delayed_var = [&](unsigned var) {
        return SharedNet{taps0[var].tap(4 - var), taps1[var].tap(2 + var)};
    };

    // Mini S-box AND stage: single-cycle chains.
    std::array<SharedNet, 10> products{};
    std::array<SharedNet, 10> pair_products{};
    for (const std::uint8_t mask : all_product_monomials()) {
        const std::size_t index = product_monomial_index(mask);
        const MonomialVars vars = monomial_vars(mask);
        if (vars.count == 2) {
            products[index] = secand2(nl, delayed_var(vars.var[0]),
                                      delayed_var(vars.var[1]),
                                      "pair" + std::to_string(index));
            pair_products[index] = products[index];
        } else {
            const std::uint8_t pair_mask =
                static_cast<std::uint8_t>(mask & (mask - 1));
            const SharedNet pair =
                pair_products[product_monomial_index(pair_mask)];
            products[index] = secand2(nl, pair, delayed_var(vars.var[2]),
                                      "triple" + std::to_string(index));
        }
    }
    for (std::size_t i = 0; i < products.size(); ++i)
        products[i] = refresh_shares(nl, products[i], rand[i],
                                     "refresh" + std::to_string(i));

    const auto mini = mini_xor_stage(nl, box, x, products);

    // MUX stage 1 with the 2-variable schedule on x0/x5 taps.
    const NetId nx0 = nl.inv(x[0].s0, "nx0");
    const NetId nx5 = nl.inv(x[5].s0, "nx5");
    DelayTaps x0s0(&nl, x[0].s0, options.luts_per_unit, "d_x0s0");
    DelayTaps nx0s0(&nl, nx0, options.luts_per_unit, "d_nx0s0");
    DelayTaps x0s1(&nl, x[0].s1, options.luts_per_unit, "d_x0s1");
    DelayTaps x5s1(&nl, x[5].s1, options.luts_per_unit, "d_x5s1");
    std::array<SharedNet, 4> sel{};
    for (unsigned row = 0; row < 4; ++row) {
        const SharedNet xa{(row & 2) != 0 ? x0s0.tap(1) : nx0s0.tap(1),
                           x0s1.tap(1)};
        const SharedNet xb{(row & 1) != 0 ? x[5].s0 : nx5, x5s1.tap(2)};
        sel[row] = secand2(nl, xa, xb, "sel" + std::to_string(row));
        sel[row] = refresh_shares(nl, sel[row], rand[10 + row],
                                  "selref" + std::to_string(row));
        sel[row] = core::reg_shares(nl, sel[row], groups.g_mid,
                                    netlist::kAlwaysEnabled,
                                    "selreg" + std::to_string(row));
    }

    // Mini outputs registered at g_mid (synchronization register).
    std::array<std::array<SharedNet, 4>, 4> mini_reg{};
    for (unsigned row = 0; row < 4; ++row)
        for (unsigned bit = 0; bit < 4; ++bit)
            mini_reg[row][bit] = core::reg_shares(
                nl, mini[row][bit], groups.g_mid, netlist::kAlwaysEnabled,
                "minireg_r" + std::to_string(row) + "b" + std::to_string(bit));

    // MUX stage 2: delays on the registered values (2-variable schedule:
    // select products +1/+1, mini outputs +0/+2), then stage-3 XOR.
    std::array<SharedNet, 4> sel_delayed{};
    std::vector<DelayTaps> stage2_taps;
    stage2_taps.reserve(4 * 2 + 16);
    for (unsigned row = 0; row < 4; ++row) {
        stage2_taps.emplace_back(&nl, sel[row].s0, options.luts_per_unit,
                                 "d_sel" + std::to_string(row) + "s0");
        DelayTaps& t0 = stage2_taps.back();
        stage2_taps.emplace_back(&nl, sel[row].s1, options.luts_per_unit,
                                 "d_sel" + std::to_string(row) + "s1");
        DelayTaps& t1 = stage2_taps.back();
        sel_delayed[row] = SharedNet{t0.tap(1), t1.tap(1)};
    }

    SharedBus out(4);
    for (unsigned bit = 0; bit < 4; ++bit) {
        std::array<NetId, 4> s0;
        std::array<NetId, 4> s1;
        for (unsigned row = 0; row < 4; ++row) {
            const SharedNet& m = mini_reg[row][bit];
            stage2_taps.emplace_back(&nl, m.s1, options.luts_per_unit,
                                     "d_mini_r" + std::to_string(row) + "b" +
                                         std::to_string(bit));
            const SharedNet y{m.s0, stage2_taps.back().tap(2)};
            const SharedNet product =
                secand2(nl, sel_delayed[row], y,
                        "mux2_r" + std::to_string(row) + "b" + std::to_string(bit));
            s0[row] = product.s0;
            s1[row] = product.s1;
        }
        out[bit] = SharedNet{netlist::xor_reduce(nl, s0),
                             netlist::xor_reduce(nl, s1)};
    }

    if (options.couple_adjacent) {
        for (unsigned var = 1; var <= 4; ++var) {
            all_chains.push_back(&taps0[var]);
            all_chains.push_back(&taps1[var]);
        }
        all_chains.push_back(&x0s0);
        all_chains.push_back(&nx0s0);
        all_chains.push_back(&x0s1);
        all_chains.push_back(&x5s1);
        for (const DelayTaps& taps : stage2_taps) all_chains.push_back(&taps);
        couple_taps(nl, all_chains);
    }
    return out;
}

SharedBus build_masked_sbox_dom(Netlist& nl, unsigned box, const SharedBus& in,
                                std::span<const NetId> rand,
                                const SboxDomGroups& groups) {
    if (in.size() != 6)
        throw std::invalid_argument("build_masked_sbox_dom: need 6 input bits");
    if (rand.size() < kDomRandomBitsPerSbox)
        throw std::invalid_argument("build_masked_sbox_dom: need 30 random bits");
    Netlist::Scope scope(nl, "sbox" + std::to_string(box));
    const SharedBus& x = in;  // caller-registered shares

    // Mini S-box AND stage: pairs register at g_dom1, triples (chained on
    // the registered pairs) at g_dom2.  One fresh bit per gadget.
    std::array<SharedNet, 10> products{};
    std::array<SharedNet, 10> pair_products{};
    for (const std::uint8_t mask : all_product_monomials()) {
        const std::size_t index = product_monomial_index(mask);
        const MonomialVars vars = monomial_vars(mask);
        if (vars.count == 2) {
            products[index] =
                core::dom_and_indep(nl, x[vars.var[0]], x[vars.var[1]],
                                    rand[index], groups.g_dom1,
                                    "pair" + std::to_string(index));
            pair_products[index] = products[index];
        } else {
            const std::uint8_t pair_mask =
                static_cast<std::uint8_t>(mask & (mask - 1));
            const SharedNet pair =
                pair_products[product_monomial_index(pair_mask)];
            products[index] =
                core::dom_and_indep(nl, pair, x[vars.var[2]], rand[index],
                                    groups.g_dom2, "triple" + std::to_string(index));
        }
    }
    // DOM outputs carry their own fresh mask: no refresh layer needed.
    const auto mini = mini_xor_stage(nl, box, x, products);

    // MUX stage 1: select products (registered inside the DOM gadgets).
    const NetId nx0 = nl.inv(x[0].s0, "nx0");
    const NetId nx5 = nl.inv(x[5].s0, "nx5");
    std::array<SharedNet, 4> sel{};
    for (unsigned row = 0; row < 4; ++row) {
        const SharedNet xa{(row & 2) != 0 ? x[0].s0 : nx0, x[0].s1};
        const SharedNet xb{(row & 1) != 0 ? x[5].s0 : nx5, x[5].s1};
        sel[row] = core::dom_and_indep(nl, xa, xb, rand[10 + row],
                                       groups.g_dom1,
                                       "sel" + std::to_string(row));
    }

    // MUX stage 2 + 3.
    SharedBus out(4);
    for (unsigned bit = 0; bit < 4; ++bit) {
        std::array<NetId, 4> s0;
        std::array<NetId, 4> s1;
        for (unsigned row = 0; row < 4; ++row) {
            const SharedNet product = core::dom_and_indep(
                nl, sel[row], mini[row][bit], rand[14 + row * 4 + bit],
                groups.g_dom3,
                "mux2_r" + std::to_string(row) + "b" + std::to_string(bit));
            s0[row] = product.s0;
            s1[row] = product.s1;
        }
        const SharedNet combined{netlist::xor_reduce(nl, s0),
                                 netlist::xor_reduce(nl, s1)};
        out[bit] = core::reg_shares(nl, combined, groups.g_out,
                                    netlist::kAlwaysEnabled,
                                    "out" + std::to_string(bit));
    }
    return out;
}

}  // namespace glitchmask::des

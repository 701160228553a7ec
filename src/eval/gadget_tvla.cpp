#include "eval/gadget_tvla.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "core/sharing.hpp"
#include "eval/campaign_pipeline.hpp"

namespace glitchmask::eval {

const char* gadget_name(GadgetKind kind) noexcept {
    switch (kind) {
        case GadgetKind::Naive: return "naive";
        case GadgetKind::Ff: return "ff";
        case GadgetKind::Pd: return "pd";
        case GadgetKind::Trichina: return "trichina";
        case GadgetKind::DomIndep: return "dom-indep";
        case GadgetKind::DomDep: return "dom-dep";
    }
    return "?";
}

std::optional<GadgetKind> parse_gadget(std::string_view name) {
    std::string lower;
    lower.reserve(name.size());
    for (const char c : name)
        lower += c == '_' ? '-'
                          : (c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32)
                                                  : c);
    if (lower == "naive" || lower == "secand2") return GadgetKind::Naive;
    if (lower == "ff" || lower == "secand2-ff") return GadgetKind::Ff;
    if (lower == "pd" || lower == "secand2-pd") return GadgetKind::Pd;
    if (lower == "trichina") return GadgetKind::Trichina;
    if (lower == "dom-indep" || lower == "dom") return GadgetKind::DomIndep;
    if (lower == "dom-dep") return GadgetKind::DomDep;
    return std::nullopt;
}

unsigned gadget_fresh_bits(GadgetKind kind) noexcept {
    switch (kind) {
        case GadgetKind::Trichina:
        case GadgetKind::DomIndep: return 1;
        case GadgetKind::DomDep: return 3;
        default: return 0;
    }
}

GadgetStimulus gadget_stimulus(unsigned fresh_bits, std::uint64_t seed,
                               std::size_t trace_index) {
    Xoshiro256 rng = trace_rng(seed, kStimulusStream, trace_index);
    GadgetStimulus stim;
    stim.fixed = rng.bit();
    const bool x = stim.fixed ? true : rng.bit();
    const bool y = stim.fixed ? true : rng.bit();
    const core::MaskedBit mx = core::mask_bit(x, rng);
    const core::MaskedBit my = core::mask_bit(y, rng);
    stim.shares = {mx.s0, mx.s1, my.s0, my.s1};
    stim.fresh.reserve(fresh_bits);
    for (unsigned i = 0; i < fresh_bits; ++i) stim.fresh.push_back(rng.bit());
    return stim;
}

GadgetCircuit build_gadget_circuit(GadgetKind kind, unsigned replicas) {
    GadgetCircuit c;
    c.kind = kind;
    c.replicas = replicas;
    c.x_in = core::shared_input(c.nl, "x");
    c.y_in = core::shared_input(c.nl, "y");
    const unsigned fresh = gadget_fresh_bits(kind);
    for (unsigned i = 0; i < fresh; ++i)
        c.rand_in.push_back(c.nl.input("r" + std::to_string(i)));
    const core::SharedNet x = core::reg_shares(c.nl, c.x_in, 1);
    const core::SharedNet y = core::reg_shares(c.nl, c.y_in, 1);
    std::vector<netlist::NetId> rand_regs;
    for (const netlist::NetId r : c.rand_in) rand_regs.push_back(c.nl.dff(r, 1));

    for (unsigned k = 0; k < replicas; ++k) {
        const std::string name = "g" + std::to_string(k);
        switch (kind) {
            case GadgetKind::Naive:
                (void)core::secand2(c.nl, x, y, name);
                break;
            case GadgetKind::Ff:
                (void)core::secand2_ff(c.nl, x, y, 2, 3, name);
                break;
            case GadgetKind::Pd:
                (void)core::secand2_pd(c.nl, x, y, {10, true}, name);
                break;
            case GadgetKind::Trichina:
                (void)core::trichina_and(c.nl, x, y, rand_regs[0], name);
                break;
            case GadgetKind::DomIndep:
                (void)core::dom_and_indep(c.nl, x, y, rand_regs[0], 2, name);
                break;
            case GadgetKind::DomDep:
                (void)core::dom_and_dep(c.nl, x, y, rand_regs[0], rand_regs[1],
                                        rand_regs[2], 2, name);
                break;
        }
    }
    c.nl.freeze();
    c.has_stage2 = c.nl.max_ctrl_group() >= 2;
    return c;
}

CampaignFingerprint gadget_fingerprint(const GadgetTvlaConfig& config) {
    std::uint64_t payload = kFnvOffset;
    payload = fnv1a64(payload, static_cast<std::uint64_t>(config.gadget));
    payload = fnv1a64(payload, config.replicas);
    payload = fnv1a64(payload, std::bit_cast<std::uint64_t>(config.noise_sigma));
    payload = fnv1a64(payload, config.placement_seed);
    payload = fnv1a64(payload, static_cast<std::uint64_t>(config.max_test_order));
    payload = fnv1a64(payload, GadgetHarness::kCycles);
    return CampaignFingerprint{fnv1a64_tag("gadget_tvla"), config.seed,
                               config.traces, config.block_size, payload};
}

GadgetHarness::GadgetHarness(GadgetKind kind, unsigned replicas,
                             std::uint64_t placement_seed)
    : circuit_(build_gadget_circuit(kind, replicas)),
      dm_(circuit_.nl, placed_delays(placement_seed)) {
    clock_.period_ps = 90000;  // the zoo's clock
}

void GadgetHarness::drive(sim::ClockedSim& s,
                          const GadgetStimulus& stim) const {
    s.set_input(circuit_.x_in.s0, stim.shares[0]);
    s.set_input(circuit_.x_in.s1, stim.shares[1]);
    s.set_input(circuit_.y_in.s0, stim.shares[2]);
    s.set_input(circuit_.y_in.s1, stim.shares[3]);
    for (std::size_t i = 0; i < circuit_.rand_in.size(); ++i)
        s.set_input(circuit_.rand_in[i], stim.fresh[i]);
    schedule(s);
}

GadgetTvlaResult GadgetHarness::run(const GadgetTvlaConfig& config,
                                    ThreadPool& pool) const {
    const CampaignSetup setup{
        .tag = std::string("gadget_") + gadget_name(circuit_.kind),
        .nl = circuit_.nl,
        .dm = dm_,
        .clock = clock_,
        .traces = config.traces,
        .block_size = config.block_size,
        .lanes = config.lanes,
        .run = config.run,
        .fingerprint = gadget_fingerprint(config)};
    std::array<netlist::NetId, 7> inputs{circuit_.x_in.s0, circuit_.x_in.s1,
                                         circuit_.y_in.s0, circuit_.y_in.s1};
    std::copy(circuit_.rand_in.begin(), circuit_.rand_in.end(),
              inputs.begin() + 4);
    const MaskedAndDrive drive{inputs, fresh_bits(), config.seed, kCycles,
                               [this](auto& s) { schedule(s); }};
    GadgetTvlaResult result;
    result.gadget = circuit_.kind;
    run_tvla_campaign(setup, drive, config.max_test_order, config.seed,
                      config.noise_sigma, pool, result);
    return result;
}

GadgetTvlaResult run_gadget_tvla(const GadgetTvlaConfig& config) {
    const GadgetHarness harness(config.gadget, config.replicas,
                                config.placement_seed);
    ThreadPool pool(resolve_workers(config.workers));
    return harness.run(config, pool);
}

}  // namespace glitchmask::eval

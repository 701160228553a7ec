#include "sim/delay_model.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "support/rng.hpp"
#include "support/simd.hpp"

namespace glitchmask::sim {

#if defined(GLITCHMASK_HAVE_AVX512)
// sim/delay_draws_avx512.cpp
namespace delay_draws_avx512 {
void first_uniforms(std::uint64_t seed, const std::uint64_t* keys,
                    std::size_t count, double* out);
}
#endif

DelayConfig DelayConfig::spartan6() {
    DelayConfig config;
    auto set = [&config](CellKind kind, std::uint32_t ps) {
        config.nominal_ps[static_cast<std::size_t>(kind)] = ps;
    };
    set(CellKind::Input, 0);
    set(CellKind::Const0, 0);
    set(CellKind::Const1, 0);
    set(CellKind::Buf, 150);
    set(CellKind::Inv, 150);
    set(CellKind::DelayBuf, 600);
    set(CellKind::And2, 250);
    set(CellKind::Nand2, 250);
    set(CellKind::Or2, 250);
    set(CellKind::Nor2, 250);
    set(CellKind::Xor2, 300);
    set(CellKind::Xnor2, 300);
    set(CellKind::Orn2, 250);
    set(CellKind::SecAnd3, 300);  // one LUT
    set(CellKind::Mux2, 300);
    set(CellKind::Dff, 0);  // sequential; clk-to-q handled separately
    return config;
}

DelayConfig DelayConfig::deterministic() {
    DelayConfig config = spartan6();
    config.gate_jitter = 0.0;
    config.delaybuf_jitter = 0.0;
    config.wire_max_ps = config.wire_min_ps;
    return config;
}

namespace {

/// out[i] = Xoshiro256::first_uniform(mix64(seed, keys[i])): the first
/// uniform of the Xoshiro256 stream of each key.
using DrawsFn = void (*)(std::uint64_t seed, const std::uint64_t* keys,
                         std::size_t count, double* out);

void first_uniforms(std::uint64_t seed, const std::uint64_t* keys,
                    std::size_t count, double* out) {
    for (std::size_t i = 0; i < count; ++i)
        out[i] = Xoshiro256::first_uniform(mix64(seed, keys[i]));
}

/// The batched draws at the active SIMD level (bit-identical at every
/// level: the vector form is integer arithmetic plus an exact scaling).
DrawsFn pick_draws() {
#if defined(GLITCHMASK_HAVE_AVX512)
    if (support::active_simd_level() >= support::SimdLevel::kAvx512 &&
        __builtin_cpu_supports("avx512dq"))
        return delay_draws_avx512::first_uniforms;
#endif
    return first_uniforms;
}

constexpr std::uint64_t kGateStream = 0x6761746564656cULL;
constexpr std::uint64_t kWireStream = 0x77697265ULL;

}  // namespace

DelayModel::DelayModel(const Netlist& nl, const DelayConfig& config)
    : config_(config) {
    if (config.wire_max_ps < config.wire_min_ps)
        throw std::runtime_error("DelayModel: wire_max < wire_min");

    const std::size_t n = nl.size();
    delays_.assign(n * 4, 0);
    const double wire_lo = static_cast<double>(config.wire_min_ps);
    const double wire_span =
        static_cast<double>(config.wire_max_ps) + 1.0 - wire_lo;

    // Every draw is the first uniform of its own Xoshiro256 stream, seeded
    // mix64(seed, key) with the key naming the instance: a gate, or one
    // (cell, pin) routing edge.  The draws go in batches: one walk over a
    // chunk of cells gathers each draw's key and destination, the batch is
    // drawn at once (vectorised where the CPU allows), and a second loop
    // turns each uniform into its delay.
    constexpr std::size_t kChunk = 64;  // cells per batch
    std::array<std::uint64_t, 4 * kChunk> keys;
    std::array<std::uint32_t, 4 * kChunk> dest;  // index into delays_
    std::array<double, 4 * kChunk> u;
    const DrawsFn draws = pick_draws();
    for (std::size_t base = 0; base < n; base += kChunk) {
        std::size_t k = 0;
        for (CellId id = static_cast<CellId>(base);
             id < std::min(n, base + kChunk); ++id) {
            const netlist::Cell& cell = nl.cell(id);
            if (config.nominal_ps[static_cast<std::size_t>(cell.kind)] != 0) {
                keys[k] = kGateStream ^ id;
                dest[k++] = id * 4;
            }
            // DelayBuf chain internal edges are short, hand-routed hops:
            // they get the minimum wire delay, not the placement spread.
            const unsigned pins = netlist::pin_count(cell.kind);
            for (unsigned p = 0; p < pins; ++p) {
                if (cell.kind == CellKind::DelayBuf &&
                    nl.cell(cell.in[p]).kind == CellKind::DelayBuf) {
                    delays_[id * 4 + 1 + p] = config.wire_min_ps;
                } else {
                    keys[k] = kWireStream ^ (id * 3ull + p);
                    dest[k++] = id * 4 + 1 + p;
                }
            }
        }
        draws(config.seed, keys.data(), k, u.data());
        for (std::size_t j = 0; j < k; ++j) {
            const std::uint32_t at = dest[j];
            if (at % 4 != 0) {  // a routing edge
                delays_[at] =
                    static_cast<std::uint32_t>(wire_lo + wire_span * u[j]);
                continue;
            }
            const CellKind kind = nl.cell(at / 4).kind;
            const double nominal = static_cast<double>(
                config.nominal_ps[static_cast<std::size_t>(kind)]);
            const double jitter = (kind == CellKind::DelayBuf)
                                      ? config.delaybuf_jitter
                                      : config.gate_jitter;
            const double factor = 1.0 + jitter * (-1.0 + 2.0 * u[j]);
            delays_[at] =
                static_cast<std::uint32_t>(std::max(1.0, nominal * factor));
        }
    }
}

CriticalPath analyze_timing(const Netlist& nl, const DelayModel& dm) {
    if (!nl.frozen()) throw std::runtime_error("analyze_timing: netlist not frozen");

    constexpr TimePs kUnset = 0;
    std::vector<TimePs> arrival(nl.size(), kUnset);
    std::vector<CellId> argmax(nl.size(), netlist::kNoNet);

    for (const CellId id : nl.inputs()) arrival[id] = dm.clk_to_q();
    for (const CellId id : nl.flops()) arrival[id] = dm.clk_to_q();

    for (CellId id = 0; id < nl.size(); ++id) {
        const netlist::Cell& cell = nl.cell(id);
        if (netlist::is_source(cell.kind)) continue;
        const unsigned pins = netlist::pin_count(cell.kind);
        TimePs latest = 0;
        CellId from = netlist::kNoNet;
        for (unsigned p = 0; p < pins; ++p) {
            const NetId in = cell.in[p];
            const TimePs t = arrival[in] + dm.wire_delay(id, p);
            if (t >= latest) {
                latest = t;
                from = in;
            }
        }
        arrival[id] = latest + dm.gate_delay(id);
        argmax[id] = from;
    }

    // Endpoints: flop D pins and every net -- dangling nets are circuit
    // outputs and bound the clock period too.
    TimePs worst = 0;
    CellId endpoint = netlist::kNoNet;
    for (const CellId flop : nl.flops()) {
        const NetId d = nl.cell(flop).in[0];
        const TimePs t = arrival[d] + dm.wire_delay(flop, 0);
        if (t > worst) {
            worst = t;
            endpoint = d;
        }
    }
    for (CellId id = 0; id < nl.size(); ++id) {
        if (arrival[id] > worst) {
            worst = arrival[id];
            endpoint = id;
        }
    }

    CriticalPath result;
    result.delay_ps = worst;
    const double period_ps = static_cast<double>(worst + dm.setup());
    result.max_freq_mhz = (period_ps > 0.0) ? 1e6 / period_ps : 0.0;
    for (CellId at = endpoint; at != netlist::kNoNet; at = argmax[at]) {
        result.path.push_back(at);
        if (result.path.size() > nl.size()) break;  // defensive
    }
    return result;
}

}  // namespace glitchmask::sim

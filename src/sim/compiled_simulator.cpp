#include "sim/compiled_simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <stdexcept>

#include "support/simd.hpp"

namespace glitchmask::sim {

// Per-ISA engine factories (sim/compiled_engine_impl.h, one TU each).
namespace engine_portable {
std::unique_ptr<CompiledEngineBase> make_engine(
    std::shared_ptr<const CompiledProgram> program, unsigned chunks);
}
#if defined(GLITCHMASK_HAVE_AVX2)
namespace engine_avx2 {
std::unique_ptr<CompiledEngineBase> make_engine(
    std::shared_ptr<const CompiledProgram> program, unsigned chunks);
}
#endif

namespace {

// ----- program fingerprint ----------------------------------------------

/// Word-wise 64-bit hash step: a multiply spreads the word's low bits up,
/// the shift folds the high bits back down.
inline std::uint64_t hash_word(std::uint64_t h, std::uint64_t word) noexcept {
    h = (h ^ word) * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 32);
}

inline std::uint64_t double_bits(double x) noexcept {
    return std::bit_cast<std::uint64_t>(x);
}

/// Fingerprint of everything a program is a function of: the netlist
/// structure (kinds, control groups, pins), the DelayConfig the delay
/// model was drawn from, and the SimOptions.
std::uint64_t program_key(const netlist::Netlist& nl, const DelayConfig& delay,
                          const SimOptions& options) {
    // Two independent chains over the cells, so their multiplies overlap.
    std::uint64_t h = hash_word(0xcbf29ce484222325ull, nl.size());
    std::uint64_t pins = 0x84222325cbf29ce4ull;
    for (const netlist::Cell& cell : nl.cells()) {
        h = hash_word(h, static_cast<std::uint64_t>(cell.kind) |
                             std::uint64_t{cell.enable} << 8 |
                             std::uint64_t{cell.reset} << 24 |
                             std::uint64_t{cell.in[2]} << 32);
        pins = hash_word(pins, cell.in[0] | std::uint64_t{cell.in[1]} << 32);
    }
    h = hash_word(h, pins);
    for (std::size_t k = 0; k < delay.nominal_ps.size(); k += 2)
        h = hash_word(h, delay.nominal_ps[k] |
                             std::uint64_t{delay.nominal_ps[k + 1]} << 32);
    h = hash_word(h, double_bits(delay.gate_jitter));
    h = hash_word(h, double_bits(delay.delaybuf_jitter));
    h = hash_word(h, delay.wire_min_ps | std::uint64_t{delay.wire_max_ps} << 32);
    h = hash_word(h, delay.clk_to_q_ps | std::uint64_t{delay.setup_ps} << 32);
    h = hash_word(h, delay.seed);
    h = hash_word(h, options.inertial_filtering ? 1u : 0u);
    return hash_word(h, double_bits(options.inertial_factor));
}

/// Per kind, the settled output for each input row a | b << 1 | c << 2:
/// eval_cell's truth table, except that sources (inputs, constants,
/// flops) settle to their all-sources-low value whatever their pins.
constexpr std::array<std::uint8_t, netlist::kNumCellKinds> kSettleTruth = [] {
    std::array<std::uint8_t, netlist::kNumCellKinds> table{};
    for (std::size_t k = 0; k < table.size(); ++k) {
        const auto kind = static_cast<netlist::CellKind>(k);
        for (unsigned row = 0; row < 8; ++row)
            if (netlist::eval_cell(kind, (row & 1u) != 0, (row & 2u) != 0,
                                   (row & 4u) != 0))
                table[k] |= static_cast<std::uint8_t>(1u << row);
    }
    table[static_cast<std::size_t>(netlist::CellKind::Input)] = 0x00;
    table[static_cast<std::size_t>(netlist::CellKind::Dff)] = 0x00;
    return table;
}();

/// Hands out consecutive, suitably aligned spans of one allocation.
class Carver {
public:
    template <class T>
    void reserve(std::size_t count) noexcept {
        bytes_ = align<T>(bytes_) + count * sizeof(T);
    }
    void allocate(CompiledProgram& p) {
        p.storage = std::make_unique_for_overwrite<std::byte[]>(bytes_);
        base_ = p.storage.get();
        bytes_ = 0;
    }
    template <class T>
    [[nodiscard]] std::span<T> take(std::size_t count) noexcept {
        bytes_ = align<T>(bytes_);
        T* first = reinterpret_cast<T*>(base_ + bytes_);
        bytes_ += count * sizeof(T);
        return {first, count};
    }

private:
    template <class T>
    [[nodiscard]] static std::size_t align(std::size_t at) noexcept {
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
        return (at + alignof(T) - 1) & ~(alignof(T) - 1);
    }

    std::size_t bytes_ = 0;
    std::byte* base_ = nullptr;
};

std::shared_ptr<const CompiledProgram> build_program(const netlist::Netlist& nl,
                                                     const DelayModel& dm,
                                                     const SimOptions& options,
                                                     std::uint64_t key) {
    using Edge = CompiledProgram::FanoutEdge;
    using Flop = CompiledProgram::FlopInfo;
    const std::size_t n = nl.size();
    // Every pin is exactly one fanout edge of its driver.
    std::size_t n_pins = 0;
    for (const netlist::Cell& cell : nl.cells())
        n_pins += netlist::pin_count(cell.kind);

    auto prog = std::make_shared<CompiledProgram>();
    CompiledProgram& p = *prog;
    Carver carver;
    carver.reserve<std::uint32_t>(n + 1);  // pin_base
    carver.reserve<std::uint32_t>(n);      // gate_ps
    carver.reserve<std::uint32_t>(n + 1);  // fanout_begin
    carver.reserve<Edge>(n_pins);
    carver.reserve<Flop>(nl.flops().size());
    carver.reserve<netlist::CellKind>(n);
    carver.reserve<std::uint8_t>(n);  // settle_one
    carver.allocate(p);
    const auto pin_base = carver.take<std::uint32_t>(n + 1);
    const auto gate_ps = carver.take<std::uint32_t>(n);
    const auto fanout_begin = carver.take<std::uint32_t>(n + 1);
    const auto fanout = carver.take<Edge>(n_pins);
    const auto flops = carver.take<Flop>(nl.flops().size());
    const auto kind = carver.take<netlist::CellKind>(n);
    const auto settle_one = carver.take<std::uint8_t>(n);

    p.key = key;
    p.n_cells = n;
    p.clk_to_q = dm.clk_to_q();
    p.max_ctrl_group = nl.max_ctrl_group();
    p.inertial_filtering = options.inertial_filtering;
    p.inertial_factor = options.inertial_factor;

    std::uint32_t max_gate = 0;
    std::uint32_t max_wire = 0;
    std::size_t n_flops = 0;
    pin_base[0] = 0;
    fanout_begin[0] = 0;
    for (CellId id = 0; id < n; ++id) {
        const netlist::Cell& cell = nl.cell(id);
        kind[id] = cell.kind;
        const unsigned pins = netlist::pin_count(cell.kind);
        pin_base[id + 1] = pin_base[id] + pins;
        gate_ps[id] = dm.gate_delay(id);
        max_gate = std::max(max_gate, gate_ps[id]);
        if (cell.kind == netlist::CellKind::Dff)
            flops[n_flops++] = {id, cell.enable, cell.reset};

        // All-sources-low steady state in creation order (topological for
        // combinational cells) -- identical to the event engines' settle.
        unsigned row = 0;
        for (unsigned q = 0; q < pins; ++q)
            row |= unsigned{settle_one[cell.in[q]]} << q;
        settle_one[id] = (kSettleTruth[static_cast<std::size_t>(cell.kind)] >>
                          row) & 1u;

        std::uint32_t out = fanout_begin[id];
        for (const netlist::Sink& sink : nl.fanout(id)) {
            const std::uint32_t wire = dm.wire_delay(sink.cell, sink.pin);
            max_wire = std::max(max_wire, wire);
            fanout[out++] = {(std::uint32_t{sink.pin} << 24) | sink.cell, wire};
        }
        fanout_begin[id + 1] = out;
    }

    p.kind = kind;
    p.pin_base = pin_base;
    p.gate_ps = gate_ps;
    p.settle_one = settle_one;
    p.fanout_begin = fanout_begin;
    p.fanout = fanout;
    p.flops = flops;

    // Ring horizon: the longest push offset past `now` is one wire hop
    // plus one gate delay plus the clk-to-Q launch, with generous slack
    // for the monotonic +1 bump chains.  Events past the horizon (never
    // produced by the clocked drivers) fall back to the overflow heap, so
    // correctness does not depend on this value.
    const std::uint64_t span = static_cast<std::uint64_t>(max_wire) +
                               2ull * max_gate + p.clk_to_q + 1024u;
    p.ring_size = std::bit_ceil(std::max<std::uint64_t>(span, 4096u));
    return prog;
}

struct ProgramCache {
    std::mutex mutex;
    std::vector<std::shared_ptr<const CompiledProgram>> entries;  // MRU first
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

ProgramCache& program_cache() {
    static ProgramCache cache;
    return cache;
}

constexpr std::size_t kProgramCacheCapacity = 8;

}  // namespace

std::shared_ptr<const CompiledProgram> compile_netlist(const netlist::Netlist& nl,
                                                       const DelayModel& dm,
                                                       SimOptions options) {
    if (!nl.frozen())
        throw std::invalid_argument("compile_netlist: netlist not frozen");
    if (dm.size() != nl.size())
        throw std::invalid_argument(
            "compile_netlist: delay model built for another netlist");
    const std::uint64_t key = program_key(nl, dm.config(), options);
    ProgramCache& cache = program_cache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    for (std::size_t i = 0; i < cache.entries.size(); ++i) {
        if (cache.entries[i]->key == key) {
            auto hit = cache.entries[i];
            cache.entries.erase(cache.entries.begin() +
                                static_cast<std::ptrdiff_t>(i));
            cache.entries.insert(cache.entries.begin(), hit);
            ++cache.hits;
            return hit;
        }
    }
    ++cache.misses;
    auto prog = build_program(nl, dm, options, key);
    cache.entries.insert(cache.entries.begin(), prog);
    if (cache.entries.size() > kProgramCacheCapacity)
        cache.entries.resize(kProgramCacheCapacity);
    return prog;
}

CompiledCacheStats compiled_program_cache_stats() {
    ProgramCache& cache = program_cache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    return CompiledCacheStats{cache.hits, cache.misses, cache.entries.size()};
}

void clear_compiled_program_cache() {
    ProgramCache& cache = program_cache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.entries.clear();
    cache.hits = 0;
    cache.misses = 0;
}

// ----- engine dispatch ---------------------------------------------------

std::unique_ptr<CompiledEngineBase> make_compiled_engine(
    std::shared_ptr<const CompiledProgram> program, unsigned chunks) {
#if defined(GLITCHMASK_HAVE_AVX2)
    if (support::active_simd_level() >= support::SimdLevel::kAvx2)
        return engine_avx2::make_engine(std::move(program), chunks);
#endif
    return engine_portable::make_engine(std::move(program), chunks);
}

// ----- CompiledClockedSim ------------------------------------------------

namespace {

std::shared_ptr<const CompiledProgram> compile_uncoupled(
    const netlist::Netlist& nl, const DelayModel& dm, CouplingConfig coupling,
    SimOptions options) {
    if (coupling.timing_enabled)
        throw std::invalid_argument(
            "CompiledClockedSim: timing coupling makes delays data-dependent; "
            "lanes cannot share a compiled schedule -- use the scalar "
            "EventSimulator");
    return compile_netlist(nl, dm, options);
}

}  // namespace

CompiledClockedSim::CompiledClockedSim(const netlist::Netlist& nl,
                                       const DelayModel& dm, unsigned lanes,
                                       ClockConfig clock,
                                       CouplingConfig coupling,
                                       SimOptions options)
    : CompiledClockedSim(nl, compile_uncoupled(nl, dm, coupling, options),
                         lanes, clock) {}

CompiledClockedSim::CompiledClockedSim(
    const netlist::Netlist& nl, std::shared_ptr<const CompiledProgram> program,
    unsigned lanes, ClockConfig clock)
    : nl_(nl),
      clock_(clock),
      program_(std::move(program)),
      controls_(nl.max_ctrl_group()) {
    if (!compiled_lane_width(lanes))
        throw std::invalid_argument(
            "CompiledClockedSim: lanes must be 64, 128, 256 or 512");
    if (program_->n_cells != nl.size())
        throw std::invalid_argument(
            "CompiledClockedSim: program compiled from another netlist");
    engine_ = make_compiled_engine(program_, lanes / 64u);
}

void CompiledClockedSim::set_input_word(NetId input, unsigned chunk,
                                        std::uint64_t values) {
    if (nl_.cell(input).kind != netlist::CellKind::Input)
        throw std::runtime_error(
            "CompiledClockedSim::set_input_word: not a primary input");
    if (chunk >= chunks())
        throw std::invalid_argument(
            "CompiledClockedSim::set_input_word: chunk out of range");
    pending_.push_back({input, static_cast<std::uint8_t>(chunk), values});
}

void CompiledClockedSim::set_input(NetId input, bool value) {
    if (nl_.cell(input).kind != netlist::CellKind::Input)
        throw std::runtime_error(
            "CompiledClockedSim::set_input: not a primary input");
    pending_.push_back({input, 0xFF, value ? kAllLanes : 0});
}

void CompiledClockedSim::step(std::size_t cycles) {
    for (std::size_t n = 0; n < cycles; ++n) {
        const TimePs edge = static_cast<TimePs>(cycle_) * clock_.period_ps;
        engine_->begin_activity_window();
        const TimePs launch = edge + program_->clk_to_q;
        // Flop updates first, pending inputs second: the same seq order
        // as BatchClockedSim::step, so every lane sees the same source
        // events as its scalar run.
        engine_->sample_flops(controls_.enable_data(), controls_.reset_data(),
                              launch);
        for (const PendingInput& input : pending_) {
            if (input.chunk == 0xFF)
                engine_->drive_all(input.net, input.values != 0, launch);
            else
                engine_->drive_chunk(input.net, input.chunk, input.values,
                                     kAllLanes, launch);
        }
        pending_.clear();
        engine_->run_until(edge + clock_.period_ps);
        ++cycle_;
    }
}

void CompiledClockedSim::restart() {
    engine_->initialize();
    controls_.clear();
    pending_.clear();
    cycle_ = 0;
}

}  // namespace glitchmask::sim

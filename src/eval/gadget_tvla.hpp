// Sharded TVLA driver over the masked-AND gadget zoo -- the attribution
// engine's primary workload.
//
// bench/gadget_zoo runs the same experiment single-threaded for its
// ablation table; this driver puts the identical harness (16 replicated
// gadgets behind shared input registers, the zoo's 5-window drive
// schedule) on the deterministic sharded campaign engine, with the full
// crash-safe runtime and optional per-net leakage attribution.  That is
// what makes the paper's spatial argument checkable: attribute the
// Trichina campaign and the top-ranked net is the cross-domain product
// chain; attribute secAND2-FF/PD and no net crosses the threshold.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/gadgets.hpp"
#include "eval/checkpoint.hpp"
#include "leakage/attribution.hpp"
#include "sim/clocked.hpp"
#include "sim/compiled_simulator.hpp"
#include "support/thread_pool.hpp"

namespace glitchmask::eval {

/// The zoo's gadget selection (bench/gadget_zoo kZoo order).
enum class GadgetKind { Naive, Ff, Pd, Trichina, DomIndep, DomDep };

inline constexpr GadgetKind kAllGadgets[] = {
    GadgetKind::Naive, GadgetKind::Ff,       GadgetKind::Pd,
    GadgetKind::Trichina, GadgetKind::DomIndep, GadgetKind::DomDep,
};

/// Canonical CLI name ("naive", "ff", "pd", "trichina", "dom-indep",
/// "dom-dep").
[[nodiscard]] const char* gadget_name(GadgetKind kind) noexcept;

/// Parses a gadget selector; accepts the canonical names plus common
/// aliases ("secand2", "secand2-ff", "secand2_pd", ...).  nullopt on an
/// unknown name.
[[nodiscard]] std::optional<GadgetKind> parse_gadget(std::string_view name);

/// Fresh random input bits the gadget consumes per evaluation.
[[nodiscard]] unsigned gadget_fresh_bits(GadgetKind kind) noexcept;

struct GadgetTvlaConfig {
    GadgetKind gadget = GadgetKind::Naive;
    unsigned replicas = 16;       // parallel instances (SNR, like the zoo)
    std::size_t traces = 12000;   // the zoo's campaign size
    double noise_sigma = 0.5;     // measurement noise on the power trace
    std::uint64_t seed = 1;       // classes, masks, fresh bits, noise
    std::uint64_t placement_seed = 1;  // delay-model jitter
    int max_test_order = 2;
    unsigned workers = 0;         // 0 = auto (env / cores)
    std::size_t block_size = 64;
    unsigned lanes = 0;           // 1 scalar, 64 bitsliced event,
                                  // 64/128/256/512 compiled, 0 auto
    CampaignRunOptions run;       // checkpointing, reports, attribution
};

struct GadgetTvlaResult {
    GadgetKind gadget = GadgetKind::Naive;
    double max_abs_t1 = 0.0;
    std::size_t argmax_cycle = 0;
    double max_abs_t2 = 0.0;
    bool leaks_first_order = false;
    std::size_t completed_traces = 0;
    bool cancelled = false;
    bool resumed = false;
    /// Per-net culprit ranking; disabled unless config.run.attribution /
    /// GLITCHMASK_ATTRIBUTION was set.
    leakage::AttributionResult attribution;
};

/// Per-trace stimulus, a pure function of (seed, trace index): class
/// choice, the four input share values, and the gadget's fresh bits.
struct GadgetStimulus {
    bool fixed = false;
    std::array<bool, 4> shares{};  // x0, x1, y0, y1
    std::vector<bool> fresh;
};

[[nodiscard]] GadgetStimulus gadget_stimulus(unsigned fresh_bits,
                                             std::uint64_t seed,
                                             std::size_t trace_index);

/// Campaign-pipeline stimulus (eval/campaign_pipeline.hpp) of every
/// masked-AND harness: trace n's gadget_stimulus() bits land on `inputs`
/// (x0, x1, y0, y1, then the fresh bits), then `schedule(sim)` clocks the
/// harness.  The gadget zoo and the Table I sequence experiment differ
/// only in their inputs and schedule.
template <class Schedule>
struct MaskedAndDrive {
    std::array<netlist::NetId, 7> inputs;
    unsigned fresh_bits;
    std::uint64_t seed;
    std::size_t bins;
    Schedule schedule;

    /// Per input, one lane word per chunk.
    using Scratch = std::array<std::array<std::uint64_t, sim::kMaxLaneChunks>, 7>;

    static bool bit(const GadgetStimulus& stim, std::size_t i) {
        return i < 4 ? stim.shares[i] : stim.fresh[i - 4];
    }

    bool drive_trace(sim::ClockedSim& s, std::size_t n) const {
        const GadgetStimulus stim = gadget_stimulus(fresh_bits, seed, n);
        for (std::size_t i = 0; i < 4 + fresh_bits; ++i)
            s.set_input(inputs[i], bit(stim, i));
        schedule(s);
        return stim.fixed;
    }

    void fill(Scratch& scratch, std::size_t first, unsigned count,
              std::uint64_t* fixed) const {
        scratch = {};
        for (unsigned lane = 0; lane < count; ++lane) {
            const GadgetStimulus stim =
                gadget_stimulus(fresh_bits, seed, first + lane);
            const std::uint64_t mask = std::uint64_t{1} << (lane % 64u);
            if (stim.fixed) fixed[lane / 64u] |= mask;
            for (std::size_t i = 0; i < 4 + fresh_bits; ++i)
                if (bit(stim, i)) scratch[i][lane / 64u] |= mask;
        }
    }

    template <class Sim>
    void drive_group(Sim& s, const Scratch& scratch) const {
        for (unsigned c = 0; c < s.chunks(); ++c)
            for (std::size_t i = 0; i < 4 + fresh_bits; ++i)
                s.set_input_word(inputs[i], c, scratch[i][c]);
        schedule(s);
    }
};

/// The zoo circuit: `replicas` gadget instances behind shared input
/// registers (enable group 1), frozen.
struct GadgetCircuit {
    GadgetKind kind = GadgetKind::Naive;
    unsigned replicas = 0;
    core::Netlist nl;
    core::SharedNet x_in{}, y_in{};
    std::vector<netlist::NetId> rand_in;
    /// Some gadgets use a second enable stage (secAND2-FF, DOM).
    bool has_stage2 = false;
};

[[nodiscard]] GadgetCircuit build_gadget_circuit(GadgetKind kind,
                                                 unsigned replicas);

/// The zoo harness as a reusable object; workers share the netlist and
/// delay model read-only.  inspect_gadget uses nl() for netlist exports
/// and single-trace VCD replays.
class GadgetHarness {
public:
    /// Power bins per trace: input load + enable(1) + enable(2) + settle,
    /// one spare (the zoo's schedule).
    static constexpr std::size_t kCycles = 5;

    GadgetHarness(GadgetKind kind, unsigned replicas,
                  std::uint64_t placement_seed);

    [[nodiscard]] const netlist::Netlist& nl() const noexcept {
        return circuit_.nl;
    }
    [[nodiscard]] const GadgetCircuit& circuit() const noexcept {
        return circuit_;
    }
    [[nodiscard]] GadgetKind kind() const noexcept { return circuit_.kind; }
    [[nodiscard]] unsigned fresh_bits() const noexcept {
        return static_cast<unsigned>(circuit_.rand_in.size());
    }
    [[nodiscard]] const sim::DelayModel& delay_model() const noexcept {
        return dm_;
    }
    [[nodiscard]] sim::ClockConfig clock() const noexcept { return clock_; }

    /// Applies one trace's stimulus and runs the 5-window drive schedule
    /// (the caller restarts the simulator and arms the recorder first).
    void drive(sim::ClockedSim& sim, const GadgetStimulus& stim) const;

    /// Runs one campaign on `pool` (scalar or lane-parallel per
    /// config.lanes and config.run.backend).
    [[nodiscard]] GadgetTvlaResult run(const GadgetTvlaConfig& config,
                                       ThreadPool& pool) const;

private:
    /// The 5-window drive schedule alone, on any sim with the ClockedSim
    /// control API (the lane engines load their input words first).
    template <class Sim>
    void schedule(Sim& s) const {
        s.step();
        s.set_enable(1, true);
        s.step();
        s.set_enable(1, false);
        if (circuit_.has_stage2) s.set_enable(2, true);
        s.step();
        if (circuit_.has_stage2) s.set_enable(2, false);
        s.step();
    }

    GadgetCircuit circuit_;
    sim::DelayModel dm_;
    sim::ClockConfig clock_;
};

/// The campaign identity of one gadget TVLA run -- the fingerprint its
/// checkpoints carry.  Exposed so the service layer can key its result
/// cache without building the harness.
[[nodiscard]] CampaignFingerprint gadget_fingerprint(
    const GadgetTvlaConfig& config);

/// One-shot convenience: builds the harness and pool and runs the
/// campaign.
[[nodiscard]] GadgetTvlaResult run_gadget_tvla(const GadgetTvlaConfig& config);

}  // namespace glitchmask::eval

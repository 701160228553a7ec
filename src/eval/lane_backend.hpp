// Campaign-side seam between the lane-parallel simulation backends.
//
// The campaign pipeline (eval/campaign_pipeline.hpp) runs its one
// lane-parallel block body against a uniform "chunked sim" API, so the
// same body serves both backends:
//
//   * EventLaneSim -- an alias of sim::BatchClockedSim, the bitsliced
//     event engine, which speaks the chunked API with one 64-lane chunk;
//   * sim::CompiledClockedSim -- the compiled wide-lane engine, 1..8
//     chunks (64..512 traces per pass), program shared through the
//     process-wide LRU cache.
//
// LaneWorker bundles a chunked sim with its per-chunk sinks (one
// BatchPowerRecorder per chunk, optionally one BatchAttributionProbe per
// chunk).  ScalarWorker is its one-lane counterpart on the scalar event
// engine.  run_campaign() is the one place that picks and builds them.
// Chunk c covers lanes [64c, 64c+64) == traces group+64c .. group+64c+63,
// so folding chunk-by-chunk in chunk order feeds the accumulators in
// trace order -- the same MomentBank::add_trace / fold_group call
// sequence as the event path, hence bit-identical campaign statistics.
//
// resolve_backend_plan() owns the policy and is the one place lane widths
// are checked: CampaignRunOptions::backend beats GLITCHMASK_BACKEND beats
// "compiled"; a config's lanes beat GLITCHMASK_LANES; lanes = 1 and timing
// coupling force the scalar path; the compiled width, when left open, is
// the cache-sized width capped at the block size.  Neither the backend
// nor the width folds into the campaign fingerprint: every engine is
// bit-identical, so a checkpoint written under one resumes under any
// other.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/checkpoint.hpp"
#include "leakage/attribution.hpp"
#include "netlist/netlist.hpp"
#include "power/batch_power.hpp"
#include "power/power_model.hpp"
#include "sim/batch_simulator.hpp"
#include "sim/clocked.hpp"
#include "sim/compiled_simulator.hpp"
#include "support/telemetry.hpp"

namespace glitchmask::eval {

enum class SimBackend { Event, Compiled };

[[nodiscard]] const char* backend_name(SimBackend backend) noexcept;

struct BackendPlan {
    SimBackend backend = SimBackend::Compiled;
    /// Traces per pass: 1 = scalar event path, 64 = bitsliced event, up
    /// to 512 for the compiled backend.
    unsigned lanes = 64;

    [[nodiscard]] bool scalar() const noexcept { return lanes == 1; }
    [[nodiscard]] unsigned chunks() const noexcept { return lanes / 64u; }
};

/// Resolves (backend, lanes) for one campaign; the one place lane widths
/// are checked.  `configured_lanes` is the config's lanes field (0 = auto:
/// GLITCHMASK_LANES, else the backend's default).  Lanes = 1 and timing
/// coupling (delays that depend on data break the shared lane schedule)
/// give the scalar event path on either backend; the event backend's lane
/// path is 64 wide.  An explicit compiled width is honoured as given; the
/// default is the widest width whose per-lane state fits a quarter of the
/// L2 cache (`netlist_nets` sizes it, 0 = unknown), but no wider than
/// `block_size` rounded up to a width, since lane groups never span
/// blocks.  Throws std::invalid_argument for an unknown backend name or a
/// lane width the backend cannot serve.
[[nodiscard]] BackendPlan resolve_backend_plan(const CampaignRunOptions& run,
                                               unsigned configured_lanes,
                                               bool timing_coupling,
                                               std::size_t netlist_nets = 0,
                                               std::size_t block_size = 64);

/// The bitsliced event engine on the lane path: BatchClockedSim already
/// speaks the chunked-sim API with one 64-lane chunk.
using EventLaneSim = sim::BatchClockedSim;

/// One campaign worker's lane-parallel replica: a chunked sim plus its
/// per-chunk sink chain.  Construct in place (make_unique) and call
/// attach_sinks() once -- the sink registrations hold pointers into the
/// recorder/probe vectors, which are reserved up front and never move.
template <class SimT>
struct LaneWorker {
    SimT sim;
    std::vector<power::BatchPowerRecorder> recorders;      // one per chunk
    std::vector<leakage::BatchAttributionProbe> probes;    // one per chunk
    std::vector<double> noisy;
    telemetry::SimStats last_stats{};

    template <class... Args>
    explicit LaneWorker(Args&&... args) : sim(std::forward<Args>(args)...) {}

    void attach_sinks(const netlist::Netlist& nl,
                      const power::PowerConfig& power_config,
                      const leakage::AttributionPlan* attribution) {
        const unsigned n = sim.chunks();
        recorders.reserve(n);
        probes.reserve(n);
        for (unsigned c = 0; c < n; ++c) {
            recorders.emplace_back(nl, power_config);
            recorders.back().attach(sim.chunk_view(c));
        }
        for (unsigned c = 0; c < n; ++c) {
            if (attribution != nullptr) {
                probes.emplace_back(*attribution, &recorders[c]);
                sim.set_sink(c, &probes[c]);
            } else {
                sim.set_sink(c, &recorders[c]);
            }
        }
    }

    [[nodiscard]] unsigned chunks() const noexcept { return sim.chunks(); }
    /// Traces simulated per pass (the pipeline's group stride).
    [[nodiscard]] unsigned group_lanes() const noexcept {
        return sim.chunks() * 64u;
    }

    /// Arms every chunk's recorder (and probe) for the next group.
    /// Arms recorders and (when attribution is on) the per-chunk probes.
    /// `fixed` points at chunks() per-chunk class masks, `count` is the
    /// number of live lanes in the group, and `attr` -- which must
    /// outlive the group -- receives the probes' window subtotals
    /// incrementally while the pass runs (exact integer sums, so the
    /// chunk-interleaved order is bit-identical to the scalar fold).
    void begin_group(std::size_t bins, const std::uint64_t* fixed = nullptr,
                     unsigned count = 0,
                     leakage::AttributionAccumulator* attr = nullptr) {
        for (auto& recorder : recorders) recorder.begin_trace(bins);
        if (attr == nullptr) return;
        for (unsigned c = 0; c < probes.size(); ++c) {
            const unsigned cnt =
                count > c * 64u ? std::min(64u, count - c * 64u) : 0u;
            probes[c].begin_group(fixed != nullptr ? fixed[c] : 0u, cnt,
                                  *attr);
        }
    }

    /// Spills the probes' staged block subtotals; call once after the
    /// last group of each block (before the block accumulator is read).
    void finish_block() {
        for (auto& probe : probes) probe.spill_block();
    }

    [[nodiscard]] double sample(std::size_t bin, unsigned lane) const noexcept {
        return recorders[lane / 64u].sample(bin, lane % 64u);
    }
    [[nodiscard]] std::uint64_t lane_toggles(unsigned lane) const noexcept {
        return recorders[lane / 64u].lane_toggles(lane % 64u);
    }
    /// One lane's complete trace plus Gaussian noise into `out` -- the
    /// fused statistics path hands this row straight to MomentBank
    /// without materializing the whole noisy batch matrix.
    void noisy_row(unsigned lane, Xoshiro256& rng, double sigma,
                   std::vector<double>& out) const {
        recorders[lane / 64u].noisy_lane_trace_into(lane % 64u, rng, sigma,
                                                    out);
    }
};

/// The scalar counterpart of LaneWorker: one event-queue simulator whose
/// toggles feed the recorder, through the attribution probe when there is
/// one.  Its row accessors mirror LaneWorker's with a single lane, so a
/// campaign folds both paths through the same code.  Construct in place
/// (make_unique): the sink registrations point into the object.
struct ScalarWorker {
    sim::ClockedSim sim;
    power::PowerRecorder recorder;
    std::optional<leakage::AttributionProbe> probe;
    std::vector<double> noisy;
    telemetry::SimStats last_stats{};

    ScalarWorker(const netlist::Netlist& nl, const sim::DelayModel& dm,
                 sim::ClockConfig clock, sim::CouplingConfig coupling,
                 const power::PowerConfig& power_config,
                 const leakage::AttributionPlan* attribution)
        : sim(nl, dm, clock, coupling), recorder(nl, power_config) {
        recorder.attach(&sim.engine());
        if (attribution != nullptr) {
            probe.emplace(*attribution, &recorder);
            sim.engine().set_sink(&*probe);
        } else {
            sim.engine().set_sink(&recorder);
        }
    }

    [[nodiscard]] double sample(std::size_t bin, unsigned /*lane*/) const {
        return recorder.trace()[bin];
    }
    [[nodiscard]] std::uint64_t lane_toggles(unsigned /*lane*/) const {
        return recorder.trace_toggles();
    }
    void noisy_row(unsigned /*lane*/, Xoshiro256& rng, double sigma,
                   std::vector<double>& out) const {
        recorder.noisy_trace_into(rng, sigma, out);
    }
};

}  // namespace glitchmask::eval

// The Table I experiment: secAND2 input sequences.
//
// Every evaluation in the paper follows one pattern -- restart device,
// apply stimulus (fixed or random class), record the per-cycle power
// trace, add Gaussian measurement noise, feed the TVLA accumulators --
// with a different stimulus.  This driver supplies the sequence stimulus
// to the shared campaign pipeline (eval/campaign_pipeline.hpp), which
// runs it on the sharded parallel engine of parallel_campaign.hpp: every
// trace derives its randomness from (seed, trace index), so results are
// bit-identical at any worker count.
#pragma once

#include <vector>

#include "core/circuits.hpp"
#include "eval/parallel_campaign.hpp"
#include "leakage/attribution.hpp"
#include "leakage/tvla.hpp"
#include "sim/clocked.hpp"
#include "support/thread_pool.hpp"

namespace glitchmask::eval {

// ----- Table I: safe input sequences of secAND2 -------------------------

struct SequenceExperimentConfig {
    unsigned replicas = 16;       // parallel secAND2 instances (SNR)
    std::size_t traces = 4000;    // per sequence
    double noise_sigma = 1.0;     // measurement noise
    std::uint64_t seed = 1;       // masks, classes, noise
    std::uint64_t placement_seed = 1;  // delay-model jitter
    int max_test_order = 2;
    unsigned workers = 0;         // campaign threads; 0 = auto (env/cores)
    std::size_t block_size = 64;  // shard granularity (part of the result's
                                  // identity -- see parallel_campaign.hpp)
    unsigned lanes = 0;           // traces per pass: 1 = scalar, 64 =
                                  // bitsliced event, 64/128/256/512 =
                                  // compiled; 0 = auto (env).  All widths
                                  // are bit-identical.
    /// Crash-safe runtime knobs (checkpoint path/cadence, cancel token);
    /// the default leaves the runtime off.  Each sequence checkpoints to
    /// its own file (the sequence is part of the campaign id and the
    /// snapshot fingerprint); run_all_sequences suffixes the sequence tag
    /// onto an explicit checkpoint_path, campaign_id or report_path.
    CampaignRunOptions run;
};

struct SequenceLeakResult {
    core::InputSequence sequence{};
    double max_abs_t1 = 0.0;      // first-order, max over cycles
    std::size_t argmax_cycle = 0;
    double max_abs_t2 = 0.0;      // second-order, for reporting
    bool leaks_first_order = false;
    bool expected_to_leak = false;
    /// Traces folded into the statistics (== config.traces unless the
    /// campaign was cancelled mid-run).
    std::size_t completed_traces = 0;
    bool cancelled = false;
    bool resumed = false;
    /// Per-net culprit ranking; disabled (empty) unless
    /// config.run.attribution / GLITCHMASK_ATTRIBUTION was set.
    leakage::AttributionResult attribution;
};

/// Power bins per sequence trace: inputs + 4 sequence slots + settle.
inline constexpr std::size_t kSequenceCycles = 6;

/// The campaign identity of one sequence experiment -- the exact
/// fingerprint its checkpoints are stamped with.  Exposed so the service
/// layer can key its result cache without running the campaign.
[[nodiscard]] CampaignFingerprint sequence_fingerprint(
    const core::InputSequence& sequence,
    const SequenceExperimentConfig& config);

/// Runs the paper's Sec. II-B experiment for one input sequence: the four
/// shares are applied one per cycle in the given order to the registered
/// secAND2 harness, and a fixed-vs-random TVLA is evaluated per cycle.
[[nodiscard]] SequenceLeakResult run_sequence_experiment(
    const core::InputSequence& sequence, const SequenceExperimentConfig& config);

/// Runs all 24 sequences on one shared harness and one pool.
[[nodiscard]] std::vector<SequenceLeakResult> run_all_sequences(
    const SequenceExperimentConfig& config);

}  // namespace glitchmask::eval

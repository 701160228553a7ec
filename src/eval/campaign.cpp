#include "eval/campaign.hpp"

#include <bit>
#include <string>

#include "eval/campaign_pipeline.hpp"
#include "eval/gadget_tvla.hpp"

namespace glitchmask::eval {

namespace {

/// "seq_0123"-style tag: default checkpoint-file id for one sequence.
std::string sequence_tag(const core::InputSequence& sequence) {
    std::string tag = "seq_";
    for (const core::ShareId slot : sequence)
        tag += static_cast<char>('0' + static_cast<int>(slot));
    return tag;
}

/// `path` with "_<tag>" inserted before the file extension (appended
/// when the file name has none): "run.gmsnap" -> "run_seq_0123.gmsnap".
std::string tagged_path(const std::string& path, const std::string& tag) {
    const std::size_t slash = path.rfind('/');
    const std::size_t name = slash == std::string::npos ? 0 : slash + 1;
    const std::size_t dot = path.find('.', name + 1);
    if (dot == std::string::npos) return path + "_" + tag;
    return path.substr(0, dot) + "_" + tag + path.substr(dot);
}

/// Prebuilt secAND2 harness: the circuit and its delay annotation do not
/// depend on the input sequence, so one instance serves all 24 sequence
/// experiments (and all worker replicas, which share them read-only).
struct SequenceHarness {
    core::RegisteredSecand2 circuit;
    sim::DelayModel dm;

    explicit SequenceHarness(const SequenceExperimentConfig& config)
        : circuit(core::build_registered_secand2(config.replicas)),
          dm(circuit.nl, placed_delays(config.placement_seed)) {}

    [[nodiscard]] SequenceLeakResult run(const core::InputSequence& sequence,
                                         const SequenceExperimentConfig& config,
                                         ThreadPool& pool) const {
        const CampaignSetup setup{
            .tag = sequence_tag(sequence),
            .nl = circuit.nl,
            .dm = dm,
            .traces = config.traces,
            .block_size = config.block_size,
            .lanes = config.lanes,
            .run = config.run,
            .fingerprint = sequence_fingerprint(sequence, config)};
        // The four shares load together, then each input register samples
        // its share one cycle after the other, in the order of the sequence.
        const auto& in = circuit.in;
        const MaskedAndDrive drive{
            {in[0], in[1], in[2], in[3]}, 0, config.seed, kSequenceCycles,
            [&](auto& s) {
                s.step();
                for (const core::ShareId slot : sequence) {
                    s.set_enable(circuit.enable[static_cast<std::size_t>(slot)],
                                 true);
                    s.step();
                }
                s.step();
            }};
        SequenceLeakResult result;
        result.sequence = sequence;
        result.expected_to_leak = core::sequence_expected_to_leak(sequence);
        run_tvla_campaign(setup, drive, config.max_test_order, config.seed,
                          config.noise_sigma, pool, result);
        return result;
    }
};

}  // namespace

/// The sequence itself is part of the campaign identity: resuming one
/// sequence's snapshot into another's campaign must be rejected.
CampaignFingerprint sequence_fingerprint(const core::InputSequence& sequence,
                                         const SequenceExperimentConfig& config) {
    std::uint64_t payload = kFnvOffset;
    for (const core::ShareId slot : sequence)
        payload = fnv1a64(payload, static_cast<std::uint64_t>(slot));
    payload = fnv1a64(payload, config.replicas);
    payload = fnv1a64(payload, std::bit_cast<std::uint64_t>(config.noise_sigma));
    payload = fnv1a64(payload, config.placement_seed);
    payload = fnv1a64(payload, static_cast<std::uint64_t>(config.max_test_order));
    payload = fnv1a64(payload, static_cast<std::uint64_t>(kSequenceCycles));
    return CampaignFingerprint{fnv1a64_tag("sequence_tvla"), config.seed,
                               config.traces, config.block_size, payload};
}

SequenceLeakResult run_sequence_experiment(
    const core::InputSequence& sequence,
    const SequenceExperimentConfig& config) {
    const SequenceHarness harness(config);
    ThreadPool pool(resolve_workers(config.workers));
    return harness.run(sequence, config, pool);
}

std::vector<SequenceLeakResult> run_all_sequences(
    const SequenceExperimentConfig& config) {
    // One netlist/delay-model and one worker pool serve all 24 sequences;
    // the circuit is sequence-independent, rebuilding it per sequence was
    // pure waste.
    const SequenceHarness harness(config);
    ThreadPool pool(resolve_workers(config.workers));
    std::vector<SequenceLeakResult> results;
    for (const core::InputSequence& sequence : core::all_input_sequences()) {
        // An explicit checkpoint/report location would otherwise be shared
        // by all 24 campaigns: the second would refuse the first's
        // snapshot, and each report would overwrite the last.
        SequenceExperimentConfig own = config;
        const std::string tag = sequence_tag(sequence);
        if (!own.run.checkpoint_path.empty())
            own.run.checkpoint_path = tagged_path(own.run.checkpoint_path, tag);
        if (!own.run.report_path.empty())
            own.run.report_path = tagged_path(own.run.report_path, tag);
        if (!own.run.campaign_id.empty()) own.run.campaign_id += "_" + tag;
        results.push_back(harness.run(sequence, own, pool));
        // A fired cancel token stops the whole sweep: later sequences
        // would each spin up, notice the token and return empty results.
        if (results.back().cancelled) break;
    }
    return results;
}

}  // namespace glitchmask::eval

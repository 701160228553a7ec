#include "service/campaign_request.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "eval/parallel_campaign.hpp"
#include "obs/ledger.hpp"
#include "sim/compiled_simulator.hpp"

namespace glitchmask::service {

namespace {

constexpr std::string_view kContext = "campaign request";

/// Gadget/sequence replica cap: the paper's campaigns use 16, and every
/// replica adds a full gadget instance to the netlist each job builds.
constexpr std::uint64_t kMaxReplicas = 1024;

/// Priority range: wide enough for any scheduling scheme, and checked
/// before the double leaves JSON (a cast of an out-of-range double to
/// int is undefined behaviour).
constexpr double kMaxPriority = 1e6;

/// The value of `member` when it is an integer in [lo, hi]; otherwise a
/// typed rejection naming the field and the range.  Never clamps.
std::uint64_t bounded_u64(const json::Member& member, std::uint64_t lo,
                          std::uint64_t hi) {
    const std::uint64_t value = member.u64();
    if (value < lo || value > hi)
        member.fail("must be in " + std::to_string(lo) + ".." +
                    std::to_string(hi));
    return value;
}

/// Campaign threads per job are capped at the host's hardware threads.
unsigned max_request_workers() {
    return std::max(1u, std::thread::hardware_concurrency());
}

core::InputSequence parse_sequence(const std::string& text) {
    if (text.size() != 4)
        throw std::runtime_error(
            "campaign request: 'sequence' must be 4 digits 0-3 (e.g. "
            "\"0213\")");
    core::InputSequence sequence{};
    bool seen[4] = {};
    for (std::size_t i = 0; i < 4; ++i) {
        const int slot = text[i] - '0';
        if (slot < 0 || slot > 3 || seen[slot])
            throw std::runtime_error(
                "campaign request: 'sequence' must be a permutation of "
                "0123");
        seen[slot] = true;
        sequence[i] = static_cast<core::ShareId>(slot);
    }
    return sequence;
}

std::string sequence_text(const core::InputSequence& sequence) {
    std::string text;
    for (const core::ShareId slot : sequence)
        text += static_cast<char>('0' + static_cast<int>(slot));
    return text;
}

const char* flavor_name(des::CoreFlavor flavor) noexcept {
    switch (flavor) {
        case des::CoreFlavor::FF: return "ff";
        case des::CoreFlavor::PD: return "pd";
        case des::CoreFlavor::DOM: return "dom";
    }
    return "ff";
}

std::optional<des::CoreFlavor> parse_flavor(std::string_view name) noexcept {
    if (name == "ff") return des::CoreFlavor::FF;
    if (name == "pd") return des::CoreFlavor::PD;
    if (name == "dom") return des::CoreFlavor::DOM;
    return std::nullopt;
}

eval::SequenceExperimentConfig sequence_config(const CampaignRequest& r) {
    eval::SequenceExperimentConfig config;
    config.replicas = r.replicas;
    config.traces = r.traces;
    config.noise_sigma = r.noise_sigma;
    config.seed = r.seed;
    config.placement_seed = r.placement_seed;
    config.max_test_order = r.max_test_order;
    config.workers = r.workers;
    config.block_size = r.block_size;
    config.lanes = r.lanes;
    return config;
}

eval::GadgetTvlaConfig gadget_config(const CampaignRequest& r) {
    eval::GadgetTvlaConfig config;
    config.gadget = r.gadget;
    config.replicas = r.replicas;
    config.traces = r.traces;
    config.noise_sigma = r.noise_sigma;
    config.seed = r.seed;
    config.placement_seed = r.placement_seed;
    config.max_test_order = r.max_test_order;
    config.workers = r.workers;
    config.block_size = r.block_size;
    config.lanes = r.lanes;
    return config;
}

eval::DesTvlaConfig des_config(const CampaignRequest& r) {
    eval::DesTvlaConfig config;
    config.traces = r.traces;
    config.noise_sigma = r.noise_sigma;
    config.seed = r.seed;
    config.placement_seed = r.placement_seed;
    config.prng_on = r.prng_on;
    config.fixed_plaintext = r.fixed_plaintext;
    config.key = r.key;
    config.max_test_order = r.max_test_order;
    config.workers = r.workers;
    config.block_size = r.block_size;
    config.lanes = r.lanes;
    return config;
}

}  // namespace

const char* campaign_kind_name(CampaignKind kind) noexcept {
    switch (kind) {
        case CampaignKind::SequenceTvla: return "sequence_tvla";
        case CampaignKind::GadgetTvla: return "gadget_tvla";
        case CampaignKind::DesTvla: return "des_tvla";
        case CampaignKind::MeanPower: return "mean_power";
    }
    return "unknown";
}

std::optional<CampaignKind> parse_campaign_kind(std::string_view name) noexcept {
    if (name == "sequence_tvla") return CampaignKind::SequenceTvla;
    if (name == "gadget_tvla") return CampaignKind::GadgetTvla;
    if (name == "des_tvla") return CampaignKind::DesTvla;
    if (name == "mean_power") return CampaignKind::MeanPower;
    return std::nullopt;
}

CampaignRequest default_request(CampaignKind kind) {
    CampaignRequest request;
    request.kind = kind;
    switch (kind) {
        case CampaignKind::SequenceTvla: {
            const eval::SequenceExperimentConfig defaults;
            request.traces = defaults.traces;
            request.noise_sigma = defaults.noise_sigma;
            request.max_test_order = defaults.max_test_order;
            request.replicas = defaults.replicas;
            break;
        }
        case CampaignKind::GadgetTvla: {
            const eval::GadgetTvlaConfig defaults;
            request.traces = defaults.traces;
            request.noise_sigma = defaults.noise_sigma;
            request.max_test_order = defaults.max_test_order;
            request.replicas = defaults.replicas;
            break;
        }
        case CampaignKind::DesTvla: {
            const eval::DesTvlaConfig defaults;
            request.traces = defaults.traces;
            request.noise_sigma = defaults.noise_sigma;
            request.max_test_order = defaults.max_test_order;
            break;
        }
        case CampaignKind::MeanPower:
            request.traces = 256;
            request.noise_sigma = 0.0;  // mean power adds no noise
            break;
    }
    return request;
}

eval::CampaignFingerprint request_fingerprint(const CampaignRequest& request) {
    switch (request.kind) {
        case CampaignKind::SequenceTvla:
            return eval::sequence_fingerprint(request.sequence,
                                              sequence_config(request));
        case CampaignKind::GadgetTvla:
            return eval::gadget_fingerprint(gadget_config(request));
        case CampaignKind::DesTvla:
            return eval::des_tvla_fingerprint(
                des_config(request),
                des::MaskedDesCore::total_cycles_for(request.flavor));
        case CampaignKind::MeanPower:
            return eval::mean_power_fingerprint(
                request.traces, request.seed, request.placement_seed,
                des::MaskedDesCore::total_cycles_for(request.flavor));
    }
    throw std::runtime_error("campaign request: unknown kind");
}

std::string fingerprint_hex(const eval::CampaignFingerprint& fingerprint) {
    // One canonical spelling: the ledger's history lookups and the
    // daemon's cache/spool keys must agree on the hex form.
    return obs::fingerprint_key(fingerprint);
}

void write_request(json::JsonWriter& w, const CampaignRequest& request) {
    w.begin_object();
    w.member("kind", campaign_kind_name(request.kind));
    w.member("priority", request.priority);
    w.member("traces", request.traces);
    w.member("noise_sigma", request.noise_sigma);
    w.member("seed", request.seed);
    w.member("placement_seed", request.placement_seed);
    w.member("max_test_order", request.max_test_order);
    w.member("block_size", request.block_size);
    w.member("lanes", static_cast<std::uint64_t>(request.lanes));
    w.member("workers", static_cast<std::uint64_t>(request.workers));
    switch (request.kind) {
        case CampaignKind::SequenceTvla:
            w.member("sequence", sequence_text(request.sequence));
            w.member("replicas", static_cast<std::uint64_t>(request.replicas));
            break;
        case CampaignKind::GadgetTvla:
            w.member("gadget", eval::gadget_name(request.gadget));
            w.member("replicas", static_cast<std::uint64_t>(request.replicas));
            break;
        case CampaignKind::DesTvla:
            w.member("flavor", flavor_name(request.flavor));
            w.member("prng_on", request.prng_on);
            w.member("fixed_plaintext", request.fixed_plaintext);
            w.member("key", request.key);
            break;
        case CampaignKind::MeanPower:
            w.member("flavor", flavor_name(request.flavor));
            break;
    }
    w.end_object();
}

std::string encode_request(const CampaignRequest& request) {
    json::JsonWriter w;
    write_request(w, request);
    return w.take();
}

CampaignRequest decode_request(const json::JsonValue& document) {
    if (document.kind != json::JsonValue::Kind::kObject)
        throw std::runtime_error("campaign request: expected a JSON object");
    const std::string& kind_name =
        json::require(document, "kind", kContext).string();
    const std::optional<CampaignKind> kind = parse_campaign_kind(kind_name);
    if (!kind)
        throw std::runtime_error("campaign request: unknown kind '" +
                                 kind_name + "'");

    CampaignRequest request = default_request(*kind);
    for (const auto& [name, value] : document.object) {
        if (name == "kind" || name == "op" || name == "id") continue;
        const json::Member member{value, name, kContext};
        if (name == "priority") {
            const double priority = member.number();
            if (!(priority >= -kMaxPriority && priority <= kMaxPriority) ||
                priority != std::trunc(priority))
                member.fail("must be an integer in -1000000..1000000");
            request.priority = static_cast<int>(priority);
        } else if (name == "traces") {
            request.traces = member.u64();
        } else if (name == "noise_sigma") {
            request.noise_sigma = member.number();
            if (!std::isfinite(request.noise_sigma) || request.noise_sigma < 0)
                member.fail("must be a finite number >= 0");
        } else if (name == "seed") {
            request.seed = member.u64();
        } else if (name == "placement_seed") {
            request.placement_seed = member.u64();
        } else if (name == "max_test_order") {
            request.max_test_order = static_cast<int>(bounded_u64(member, 1, 3));
        } else if (name == "block_size") {
            request.block_size = member.u64();
        } else if (name == "lanes") {
            const std::uint64_t lanes = member.u64();
            if (lanes > 1 &&
                (lanes > 64 * sim::kMaxLaneChunks ||
                 !sim::compiled_lane_width(static_cast<unsigned>(lanes))))
                member.fail("must be 0 (auto), 1, 64, 128, 256 or 512");
            request.lanes = static_cast<unsigned>(lanes);
        } else if (name == "workers") {
            request.workers = static_cast<unsigned>(
                bounded_u64(member, 0, max_request_workers()));
        } else if (name == "sequence") {
            request.sequence = parse_sequence(member.string());
        } else if (name == "replicas") {
            request.replicas =
                static_cast<unsigned>(bounded_u64(member, 1, kMaxReplicas));
        } else if (name == "gadget") {
            const std::optional<eval::GadgetKind> gadget =
                eval::parse_gadget(member.string());
            if (!gadget) member.fail("names no known gadget");
            request.gadget = *gadget;
        } else if (name == "flavor") {
            const std::optional<des::CoreFlavor> flavor =
                parse_flavor(member.string());
            if (!flavor) member.fail("must be ff, pd or dom");
            request.flavor = *flavor;
        } else if (name == "prng_on") {
            request.prng_on = member.boolean();
        } else if (name == "fixed_plaintext") {
            request.fixed_plaintext = member.u64();
        } else if (name == "key") {
            request.key = member.u64();
        } else {
            member.fail("is not a known request field");
        }
    }
    // The block plan as a whole: zero sizes and trace/block pairs whose
    // block arithmetic would wrap.
    try {
        eval::validate_campaign_config(request.traces, request.block_size);
    } catch (const std::invalid_argument& error) {
        throw std::runtime_error(std::string("campaign request: ") +
                                 error.what());
    }
    return request;
}

CampaignOutcome run_campaign_request(const CampaignRequest& request,
                                     eval::CampaignRunOptions run) {
    CampaignOutcome outcome;
    outcome.fingerprint = request_fingerprint(request);
    outcome.total_traces = request.traces;

    // The degradation flags live in CampaignProgress, which only
    // mean_power surfaces; observe them uniformly through the hook.
    const auto forward = run.on_degraded;
    run.on_degraded = [&outcome, forward](const char* what,
                                          const std::string& detail) {
        if (std::string_view(what) == "checkpoint_degraded")
            outcome.checkpoint_degraded = true;
        else
            outcome.snapshot_discarded = true;
        if (forward) forward(what, detail);
    };

    switch (request.kind) {
        case CampaignKind::SequenceTvla: {
            eval::SequenceExperimentConfig config = sequence_config(request);
            config.run = run;
            const eval::SequenceLeakResult result =
                eval::run_sequence_experiment(request.sequence, config);
            outcome.completed_traces = result.completed_traces;
            outcome.cancelled = result.cancelled;
            outcome.resumed = result.resumed;
            outcome.metrics = {
                {"max_abs_t_order1", result.max_abs_t1},
                {"max_abs_t_order2", result.max_abs_t2},
                {"argmax_cycle", static_cast<double>(result.argmax_cycle)},
                {"leaks_first_order", result.leaks_first_order ? 1.0 : 0.0},
            };
            break;
        }
        case CampaignKind::GadgetTvla: {
            eval::GadgetTvlaConfig config = gadget_config(request);
            config.run = run;
            const eval::GadgetTvlaResult result = eval::run_gadget_tvla(config);
            outcome.completed_traces = result.completed_traces;
            outcome.cancelled = result.cancelled;
            outcome.resumed = result.resumed;
            outcome.metrics = {
                {"max_abs_t_order1", result.max_abs_t1},
                {"max_abs_t_order2", result.max_abs_t2},
                {"argmax_cycle", static_cast<double>(result.argmax_cycle)},
                {"leaks_first_order", result.leaks_first_order ? 1.0 : 0.0},
            };
            break;
        }
        case CampaignKind::DesTvla: {
            eval::DesTvlaConfig config = des_config(request);
            config.run = run;
            const des::MaskedDesCore core(
                des::MaskedDesOptions{.flavor = request.flavor});
            const eval::DesTvlaResult result = eval::run_des_tvla(core, config);
            outcome.completed_traces = result.completed_traces;
            outcome.cancelled = result.cancelled;
            outcome.resumed = result.resumed;
            outcome.metrics = {
                {"samples", static_cast<double>(result.samples)},
                {"toggles", static_cast<double>(result.toggles)},
            };
            for (int order = 1;
                 order <= config.max_test_order && order <= 3; ++order) {
                char name[32];
                std::snprintf(name, sizeof name, "max_abs_t_order%d", order);
                outcome.metrics.emplace_back(
                    name, result.max_abs_t[static_cast<std::size_t>(order)]);
            }
            break;
        }
        case CampaignKind::MeanPower: {
            const des::MaskedDesCore core(
                des::MaskedDesOptions{.flavor = request.flavor});
            eval::CampaignProgress progress;
            const std::vector<double> trace = eval::mean_power_trace(
                core, request.traces, request.seed, request.placement_seed,
                request.workers, request.lanes, run, &progress);
            outcome.completed_traces = progress.completed_traces;
            outcome.cancelled = progress.cancelled;
            outcome.resumed = progress.resumed;
            outcome.checkpoint_degraded |= progress.checkpoint_degraded;
            outcome.snapshot_discarded |= progress.snapshot_discarded;
            double sum = 0.0, peak = 0.0;
            for (const double v : trace) {
                sum += v;
                if (v > peak) peak = v;
            }
            outcome.metrics = {
                {"samples", static_cast<double>(trace.size())},
                {"mean_power", trace.empty() ? 0.0 : sum / trace.size()},
                {"peak_power", peak},
            };
            break;
        }
    }
    return outcome;
}

}  // namespace glitchmask::service

#include "eval/des_experiments.hpp"

#include <bit>
#include <span>
#include <vector>

#include "core/sharing.hpp"
#include "eval/campaign_pipeline.hpp"

namespace glitchmask::eval {

namespace {

/// The DES stimulus of both campaigns, drawn from trace n's stream in a
/// fixed order (class, plaintext, key, masks; the rest of the stream
/// supplies the refresh bits).  TVLA (`tvla` set, Sec. VII): fixed or
/// random plaintext under the configured key; "PRNG off" zeroes the
/// masks and the refresh bits.  Mean power (`tvla` null, Figs. 13/16):
/// random plaintext and key, PRNG on, all traces one class.
struct DesDrive {
    const des::MaskedDesCore& core;
    const DesTvlaConfig* tvla;
    std::uint64_t seed;
    std::size_t bins;

    /// One lane group: masked operands plus the per-lane generators whose
    /// continued state supplies the refresh bits.
    struct Scratch {
        std::vector<core::MaskedWord> pts, keys;
        std::vector<Xoshiro256> prngs;
    };

    struct Draw {
        bool fixed = false;
        core::MaskedWord pt{}, key{};
        Xoshiro256 rng;
    };

    [[nodiscard]] bool prng_on() const { return !tvla || tvla->prng_on; }

    [[nodiscard]] Draw draw(std::size_t n) const {
        Draw d{.rng = trace_rng(seed, kStimulusStream, n)};
        d.fixed = tvla && d.rng.bit();
        const std::uint64_t pt = d.fixed ? tvla->fixed_plaintext : d.rng();
        const std::uint64_t key = tvla ? tvla->key : d.rng();
        const auto mask = [&](std::uint64_t v) {
            return prng_on() ? core::mask_word(v, 64, d.rng)
                             : core::MaskedWord{0, v};
        };
        d.pt = mask(pt);
        d.key = mask(key);
        return d;
    }

    bool drive_trace(sim::ClockedSim& s, std::size_t n) const {
        Draw d = draw(n);
        (void)core.encrypt(s, d.pt, d.key, prng_on() ? &d.rng : nullptr);
        return d.fixed;
    }

    void fill(Scratch& scratch, std::size_t first, unsigned count,
              std::uint64_t* fixed) const {
        scratch.pts.clear();
        scratch.keys.clear();
        scratch.prngs.clear();
        for (unsigned lane = 0; lane < count; ++lane) {
            const Draw d = draw(first + lane);
            if (d.fixed) fixed[lane / 64u] |= std::uint64_t{1} << (lane % 64u);
            scratch.pts.push_back(d.pt);
            scratch.keys.push_back(d.key);
            scratch.prngs.push_back(d.rng);
        }
    }

    template <class Sim>
    void drive_group(Sim& s, Scratch& scratch) const {
        (void)core.encrypt_batch_chunks(
            s, scratch.pts, scratch.keys,
            prng_on() ? std::span<Xoshiro256>(scratch.prngs)
                      : std::span<Xoshiro256>{});
    }
};

}  // namespace

/// Everything that defines the campaign's statistics except workers and
/// lanes (both proven bit-identical) goes into the fingerprint.
CampaignFingerprint des_tvla_fingerprint(const DesTvlaConfig& config,
                                         std::size_t samples) {
    std::uint64_t payload = kFnvOffset;
    payload = fnv1a64(payload, config.placement_seed);
    payload = fnv1a64(payload, std::bit_cast<std::uint64_t>(config.noise_sigma));
    payload = fnv1a64(payload, config.prng_on ? 1 : 0);
    payload = fnv1a64(payload, config.fixed_plaintext);
    payload = fnv1a64(payload, config.key);
    payload = fnv1a64(payload, static_cast<std::uint64_t>(config.max_test_order));
    payload = fnv1a64(payload, static_cast<std::uint64_t>(samples));
    payload = fnv1a64(payload, config.coupling.timing_enabled ? 1 : 0);
    payload = fnv1a64(payload, config.coupling.window_ps);
    payload = fnv1a64(payload, config.coupling.slowdown_ps);
    payload = fnv1a64(payload, config.coupling.speedup_ps);
    payload =
        fnv1a64(payload, std::bit_cast<std::uint64_t>(config.coupling_epsilon));
    return CampaignFingerprint{fnv1a64_tag("des_tvla"), config.seed,
                               config.traces, config.block_size, payload};
}

CampaignFingerprint mean_power_fingerprint(std::size_t traces,
                                           std::uint64_t seed,
                                           std::uint64_t placement_seed,
                                           std::size_t samples) {
    std::uint64_t payload = kFnvOffset;
    payload = fnv1a64(payload, placement_seed);
    payload = fnv1a64(payload, static_cast<std::uint64_t>(samples));
    return CampaignFingerprint{fnv1a64_tag("mean_power"), seed, traces,
                               /*block_size=*/64, payload};
}

DesTvlaResult run_des_tvla(const des::MaskedDesCore& core,
                           const DesTvlaConfig& config) {
    const sim::DelayModel dm(core.nl(), placed_delays(config.placement_seed));
    const std::size_t samples = core.total_cycles();
    const CampaignSetup setup{
        .tag = "des_tvla",
        .nl = core.nl(),
        .dm = dm,
        .clock = {.period_ps = core.recommended_period()},
        .coupling = config.coupling,
        .coupling_epsilon = config.coupling_epsilon,
        .traces = config.traces,
        .block_size = config.block_size,
        .lanes = config.lanes,
        .run = config.run,
        .fingerprint = des_tvla_fingerprint(config, samples)};
    ThreadPool pool(resolve_workers(config.workers));
    DesTvlaResult result;
    auto out = run_campaign(
        setup, DesDrive{core, &config, config.seed, samples},
        TvlaStats<true>{samples, config.max_test_order, config.seed,
                        config.noise_sigma},
        pool, [&](const TvlaStats<true>::State& stats,
                  RunTelemetrySession& session) {
            for (int order = 1; order <= config.max_test_order; ++order) {
                result.max_abs_t[order] =
                    stats.bank.max_abs_t(order, &result.argmax[order]);
                session.add_metric("max_abs_t_order" + std::to_string(order),
                                   result.max_abs_t[order]);
            }
            session.add_metric("toggles", static_cast<double>(stats.toggles));
        });
    result.samples = samples;
    result.traces = config.traces;
    result.completed_traces = out.progress.completed_traces;
    result.cancelled = out.progress.cancelled;
    result.resumed = out.progress.resumed;
    result.toggles = out.stats.toggles;
    result.attribution = std::move(out.attribution);
    result.campaign = std::move(out.stats.bank);
    return result;
}

std::vector<double> mean_power_trace(const des::MaskedDesCore& core,
                                     std::size_t traces, std::uint64_t seed,
                                     std::uint64_t placement_seed,
                                     unsigned workers, unsigned lanes,
                                     const CampaignRunOptions& run,
                                     CampaignProgress* progress,
                                     leakage::AttributionResult* attribution) {
    const sim::DelayModel dm(core.nl(), placed_delays(placement_seed));
    const std::size_t samples = core.total_cycles();
    const CampaignSetup setup{
        .tag = "mean_power",
        .nl = core.nl(),
        .dm = dm,
        .clock = {.period_ps = core.recommended_period()},
        .traces = traces,
        .block_size = 64,
        .lanes = lanes,
        .run = run,
        .fingerprint =
            mean_power_fingerprint(traces, seed, placement_seed, samples)};
    ThreadPool pool(resolve_workers(workers));
    auto out = run_campaign(setup, DesDrive{core, nullptr, seed, samples},
                            PowerSums{samples}, pool,
                            [](const PowerSums::State&, RunTelemetrySession&) {});
    std::vector<double> mean = std::move(out.stats);
    // A cancelled run averages over the traces it actually folded in.
    const std::size_t denom = out.progress.completed_traces > 0
                                  ? out.progress.completed_traces
                                  : traces;
    for (double& v : mean) v /= static_cast<double>(denom);
    if (progress != nullptr) *progress = out.progress;
    if (attribution != nullptr && out.attribution.enabled)
        *attribution = std::move(out.attribution);
    return mean;
}

}  // namespace glitchmask::eval

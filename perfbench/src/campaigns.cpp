// The two in-process campaign workloads.  Each builds its circuit, makes
// one small unmeasured call, then repeats one fixed campaign for the
// measured seconds: every call is the same pure function of the seed, so
// every call must return the same result digest, and the per-call
// throughput samples are reported as medians.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "des/masked_des.hpp"
#include "eval/des_experiments.hpp"
#include "eval/gadget_tvla.hpp"
#include "service/json_writer.hpp"
#include "sim/compiled_simulator.hpp"
#include "sim/delay_model.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace gm = glitchmask;
using gm::service::JsonWriter;

namespace {

/// Traces per DES campaign call: 16 blocks of 64, i.e. 8 blocks per
/// worker, so the sharded runner always has work to split.
constexpr std::size_t kDesTraces = 1024;
/// Traces per secAND2-PD campaign call (the paper's shortest campaign,
/// 0.5M): the second-order leak (|t2| > 4.5) shows on every seed while
/// the first order stays clean, and a 40-s run holds 15-30 calls for its
/// medians.
constexpr std::size_t kGadgetTraces = 1u << 19;
/// Traces of the unmeasured warm-up call (the first seconds of load on an
/// idle host run measurably slower).
constexpr std::size_t kDesWarmupTraces = 256;
constexpr std::size_t kGadgetWarmupTraces = 1u << 17;
/// Set-up samples before the first call and after every call (setup_s is
/// the median of all of them; each is timed in its own child process).
constexpr int kSetupReps = 9;
constexpr int kSetupRepsPerCall = 3;
/// Minimum campaign calls per run, whatever --seconds says.
constexpr std::size_t kMinCalls = 3;
/// Attribution nets that enter the gadget digest.
constexpr std::size_t kDigestNets = 5;

struct CallSample {
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/// Everything one campaign run measures.
struct Samples {
    /// Every call of an untraced run; the traced calls of a traced run.
    std::vector<CallSample> calls;
    /// Traced runs: the calls made with tracing off.
    std::vector<CallSample> untraced_calls;
    std::vector<double> setup_s;
    double peak_rss_mb = 0.0;
};

/// Repeats `call` until `seconds` have passed (at least kMinCalls times).
/// After each call it records the call's peak RSS, then takes
/// kSetupRepsPerCall more set-up samples with `setup` (which returns
/// seconds), so the set-up samples span the run.
/// Traced runs alternate traced and untraced calls so the tracing overhead
/// is measured on the same seed under the same host conditions.
template <class Call, class Setup>
void repeat_calls(const Options& options, const char* span_name,
                  Samples& samples, Call&& call, Setup&& setup) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0;
         i < kMinCalls * (options.trace ? 2 : 1) ||
         seconds_since(start) < options.seconds;
         ++i) {
        const bool trace_this = options.trace && i % 2 == 0;
        gm::trace::set_enabled(trace_this);
        reset_peak_rss();
        const double cpu0 = process_cpu_s();
        const std::int64_t t0 = now_ns();
        {
            const gm::trace::ScopedSpan span(span_name);
            call();
        }
        const CallSample sample{seconds_since(t0), process_cpu_s() - cpu0};
        collect_own_spans();
        (options.trace && !trace_this ? samples.untraced_calls : samples.calls)
            .push_back(sample);
        samples.peak_rss_mb = std::max(samples.peak_rss_mb, self_peak_rss_mb());
        for (int rep = 0; rep < kSetupRepsPerCall; ++rep)
            samples.setup_s.push_back(setup());
    }
    gm::trace::set_enabled(options.trace);
}

/// The end-to-end metrics of an in-process campaign workload, each call
/// being `traces` traces.
void report_samples(Report& report, const Samples& samples,
                    std::size_t traces) {
    std::vector<double> rate, cpu_us;
    for (const CallSample& c : samples.calls) {
        rate.push_back(static_cast<double>(traces) / c.wall_s);
        cpu_us.push_back(c.cpu_s * 1e6 / static_cast<double>(traces));
    }
    report.metric("traces_per_s", median(rate));
    report.metric("cpu_us_per_trace", median(cpu_us));
    report.metric("setup_s", median(samples.setup_s));
    report.metric("peak_rss_mb", samples.peak_rss_mb);
    if (samples.untraced_calls.empty()) return;
    // Traced runs: share of untraced throughput lost with tracing on.
    std::vector<double> t, u;
    for (const CallSample& c : samples.calls) t.push_back(c.wall_s);
    for (const CallSample& c : samples.untraced_calls) u.push_back(c.wall_s);
    report.layer("trace.overhead_share", 1.0 - median(u) / median(t));
}

void add_t_values(JsonWriter& w, const double* t, int orders) {
    w.key("t");
    w.begin_array();
    for (int order = 1; order <= orders; ++order) w.value(hex_bits(t[order]));
    w.end_array();
    w.key("t_value");
    w.begin_array();
    for (int order = 1; order <= orders; ++order) w.value(t[order]);
    w.end_array();
}

}  // namespace

Report des_tvla_workload(const Options& options) {
    Report report;
    Samples samples;
    // One set-up: the core, plus the program compile on a compiled plan
    // (its own delay model, so the campaign's first lookup hits the cache).
    const auto build_core = [&](std::optional<gm::des::MaskedDesCore>& core) {
        const std::int64_t t0 = now_ns();
        {
            const gm::trace::ScopedSpan build("des.core_build");
            core.emplace();
        }
        report.plan = default_plan(core->nl().size());
        if (report.plan.backend == gm::eval::SimBackend::Compiled) {
            const gm::trace::ScopedSpan compile("sim.compile");
            gm::sim::DelayConfig delay = gm::sim::DelayConfig::spartan6();
            delay.seed = 1;
            gm::sim::clear_compiled_program_cache();
            (void)gm::sim::compile_netlist(
                core->nl(), gm::sim::DelayModel(core->nl(), delay));
        }
        return seconds_since(t0);
    };
    const auto child_setup = [&] {
        auto timed = [&] {
            std::optional<gm::des::MaskedDesCore> scratch;
            return build_core(scratch);
        };
        return time_in_child(timed);
    };
    std::optional<gm::des::MaskedDesCore> core;
    {
        const gm::trace::ScopedSpan span("workload.setup");
        (void)build_core(core);
        for (int rep = 0; rep < kSetupReps; ++rep)
            samples.setup_s.push_back(child_setup());
    }

    gm::eval::DesTvlaConfig config;
    config.seed = options.seed;
    config.workers = kWorkers;
    {
        const gm::trace::ScopedSpan span("workload.warmup");
        config.traces = kDesWarmupTraces;
        (void)gm::eval::run_des_tvla(*core, config);
    }
    config.traces = kDesTraces;

    JsonWriter checks;
    checks.begin_array();
    repeat_calls(
        options, "eval.run_des_tvla", samples,
        [&] {
            ++report.attempted;
            try {
                const gm::eval::DesTvlaResult result =
                    gm::eval::run_des_tvla(*core, config);
                checks.begin_object();
                add_t_values(checks, result.max_abs_t.data(), 3);
                checks.member("toggles", result.toggles);
                checks.member("traces",
                              static_cast<std::uint64_t>(result.completed_traces));
                checks.end_object();
            } catch (const std::exception& error) {
                report.errors.push_back(std::string("run_des_tvla: ") +
                                        error.what());
            }
        },
        child_setup);
    checks.end_array();
    report.checks = checks.take();
    report_samples(report, samples, kDesTraces);
    return report;
}

Report gadget_pd_attr_workload(const Options& options) {
    Report report;
    Samples samples;
    // One set-up: harness and thread pool, plus the program compile on a
    // compiled plan.
    const auto build_harness = [&](std::optional<gm::eval::GadgetHarness>& harness,
                                   std::optional<gm::ThreadPool>& pool) {
        const std::int64_t t0 = now_ns();
        {
            const gm::trace::ScopedSpan build("eval.harness_build");
            harness.emplace(gm::eval::GadgetKind::Pd, /*replicas=*/16u,
                            /*placement_seed=*/1u);
            pool.emplace(kWorkers);
        }
        report.plan = default_plan(harness->nl().size());
        if (report.plan.backend == gm::eval::SimBackend::Compiled) {
            const gm::trace::ScopedSpan compile("sim.compile");
            gm::sim::clear_compiled_program_cache();
            (void)gm::sim::compile_netlist(harness->nl(),
                                           harness->delay_model());
        }
        return seconds_since(t0);
    };
    const auto child_setup = [&] {
        auto timed = [&] {
            std::optional<gm::eval::GadgetHarness> scratch_harness;
            std::optional<gm::ThreadPool> scratch_pool;
            return build_harness(scratch_harness, scratch_pool);
        };
        return time_in_child(timed);
    };
    std::optional<gm::eval::GadgetHarness> harness;
    std::optional<gm::ThreadPool> pool;
    {
        const gm::trace::ScopedSpan span("workload.setup");
        (void)build_harness(harness, pool);
        for (int rep = 0; rep < kSetupReps; ++rep)
            samples.setup_s.push_back(child_setup());
    }

    gm::eval::GadgetTvlaConfig config;
    config.gadget = gm::eval::GadgetKind::Pd;
    config.replicas = 16;
    config.seed = options.seed;
    config.workers = kWorkers;
    config.run.attribution = true;
    {
        const gm::trace::ScopedSpan span("workload.warmup");
        config.traces = kGadgetWarmupTraces;
        (void)harness->run(config, *pool);
    }
    config.traces = kGadgetTraces;

    JsonWriter checks;
    checks.begin_array();
    repeat_calls(
        options, "eval.run_gadget_tvla", samples,
        [&] {
            ++report.attempted;
            try {
                const gm::eval::GadgetTvlaResult result =
                    harness->run(config, *pool);
                const double t[3] = {0.0, result.max_abs_t1, result.max_abs_t2};
                checks.begin_object();
                add_t_values(checks, t, 2);
                checks.member("traces",
                              static_cast<std::uint64_t>(result.completed_traces));
                checks.key("top");
                checks.begin_array();
                const auto& ranked = result.attribution.ranked;
                for (std::size_t i = 0; i < ranked.size() && i < kDigestNets;
                     ++i) {
                    checks.begin_array();
                    checks.value(ranked[i].name);
                    checks.value(hex_bits(ranked[i].max_abs_t));
                    checks.value(ranked[i].toggles);
                    checks.end_array();
                }
                checks.end_array();
                checks.end_object();
            } catch (const std::exception& error) {
                report.errors.push_back(std::string("run_gadget_tvla: ") +
                                        error.what());
            }
        },
        child_setup);
    checks.end_array();
    report.checks = checks.take();
    report_samples(report, samples, kGadgetTraces);
    return report;
}

}  // namespace perfbench

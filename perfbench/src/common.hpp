// Shared pieces of the bench binary: options, clocks, statistics, the
// span summary of traced runs, and the raw report it prints for run.py to
// check and summarize.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "eval/lane_backend.hpp"
#include "support/trace.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string daemon;     // glitchmaskd binary (service layers)
    std::string workdir;    // scratch directory inside the checkout
    std::string spans_out;  // traced runs write their spans here
};

/// Campaign threads per workload: 2 leaves room for the benchmark and
/// host noise on a 4-core host, and gives the sharded runner work to split.
inline constexpr unsigned kWorkers = 2;

/// Removes every GLITCHMASK_* variable from this process's environment,
/// so neither the library nor a spawned daemon sees a shell's overrides.
void scrub_glitchmask_env();

/// The backend plan the campaign drivers resolve for a netlist of `nets` nets with
/// default options (no overrides, lanes = auto).
[[nodiscard]] glitchmask::eval::BackendPlan default_plan(std::size_t nets);

[[nodiscard]] std::int64_t now_ns() noexcept;
[[nodiscard]] double seconds_since(std::int64_t start_ns) noexcept;
/// User + system CPU time of this process (all threads), seconds.
[[nodiscard]] double process_cpu_s() noexcept;
/// Peak resident set of this process since the last reset_peak_rss(), MiB.
[[nodiscard]] double self_peak_rss_mb();
/// Returns freed heap to the OS and restarts the peak-RSS count, so set-up
/// repetitions do not inflate the peak of the measured work.
void reset_peak_rss();

/// Runs `timed` (which returns seconds) in a forked child and returns its
/// result.  A sub-millisecond set-up's cost depends on where its fresh
/// pages land, which is fixed for the life of a process; timing each
/// repetition in its own child samples that placement the way separate
/// user processes do, so the median is steady from run to run.
double time_in_child(double (*timed)(void*), void* context);

template <class F>
double time_in_child(F& timed) {
    return time_in_child(
        [](void* f) { return (*static_cast<F*>(f))(); }, &timed);
}

[[nodiscard]] double median(std::vector<double> values);
/// The IEEE-754 bit pattern of `x` as 16 hex digits (exact digests).
[[nodiscard]] std::string hex_bits(double x);

// ----- spans ---------------------------------------------------------------

/// Traced runs record spans with the library's recorder (support/trace),
/// switched on with trace::set_enabled.  The benchmark names its own spans
/// "<layer>.<what>"; the library's own spans (block, sim, noise, ...) have
/// no dot in their name.

/// Drains the recorder and keeps the benchmark's own spans, dropping the
/// library's, so that a long traced campaign does not pile up a span per
/// block.  Call it after each traced campaign call and at the end.
void collect_own_spans();
/// The spans collect_own_spans() has kept so far.
[[nodiscard]] const std::vector<glitchmask::trace::Span>& own_spans();

/// Total and self time of every span name: self time is a span's duration
/// minus the part of it covered by its children (the union of their
/// intervals, so overlapping children on several threads count once).
struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};
[[nodiscard]] std::vector<SelfTime> self_times(
    const std::vector<glitchmask::trace::Span>& spans);

// ----- the raw report ----------------------------------------------------

/// What one run hands to run.py.  Metrics are measured values; `checks`
/// carries the raw values run.py judges (verdicts and digests),
/// so every correctness rule lives in one place (run.py) and can be tested
/// there with perturbed inputs.
struct Report {
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::pair<std::string, double>> layers;
    /// Operations the workload attempted and the failures the bench binary saw
    /// itself (exceptions, failed submits in the service layers).  Output
    /// checks are counted by run.py on top of these.
    std::uint64_t attempted = 0;
    /// The backend plan the workload's campaigns resolved.
    glitchmask::eval::BackendPlan plan;
    std::vector<std::string> errors;
    /// Pre-rendered JSON array of per-call check records.
    std::string checks = "[]";
    /// Pre-rendered JSON object of extra human-facing detail.
    std::string detail = "{}";

    void metric(std::string name, double value) {
        metrics.emplace_back(std::move(name), value);
    }
    void layer(std::string name, double value) {
        layers.emplace_back(std::move(name), value);
    }
};

/// Renders the report (plus the host/plan stamp) as one JSON line.
[[nodiscard]] std::string render_report(const Options& options,
                                        const Report& report);

}  // namespace perfbench

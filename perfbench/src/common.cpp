#include "common.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "service/json_writer.hpp"
#include "support/simd.hpp"

extern char** environ;

namespace perfbench {

using glitchmask::service::JsonWriter;
using glitchmask::trace::Span;

void scrub_glitchmask_env() {
    std::vector<std::string> names;
    for (char** entry = environ; *entry != nullptr; ++entry) {
        const std::string_view text(*entry);
        if (text.starts_with("GLITCHMASK_"))
            names.emplace_back(text.substr(0, text.find('=')));
    }
    for (const std::string& name : names) ::unsetenv(name.c_str());
}

glitchmask::eval::BackendPlan default_plan(std::size_t nets) {
    return glitchmask::eval::resolve_backend_plan(
        glitchmask::eval::CampaignRunOptions{}, /*configured_lanes=*/0,
        /*timing_coupling=*/false, nets);
}

std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double seconds_since(std::int64_t start_ns) noexcept {
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double process_cpu_s() noexcept {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double self_peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.starts_with("VmHWM:"))
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void reset_peak_rss() {
    ::malloc_trim(0);
    // "5" resets the peak resident set size (Linux >= 4.0).
    std::ofstream("/proc/self/clear_refs") << "5";
}

double median(std::vector<double> values) {
    if (values.empty()) throw std::logic_error("median of no samples");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string hex_bits(double x) {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(x)));
    return buffer;
}

double time_in_child(double (*timed)(void*), void* context) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::close(fds[0]);
        double seconds = -1.0;
        try {
            seconds = timed(context);
        } catch (...) {
        }
        const ssize_t n = ::write(fds[1], &seconds, sizeof seconds);
        ::_exit(n == sizeof seconds ? 0 : 1);
    }
    ::close(fds[1]);
    double seconds = -1.0;
    const ssize_t n = ::read(fds[0], &seconds, sizeof seconds);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (n != sizeof seconds || seconds < 0.0)
        throw std::runtime_error("set-up failed in the timing child");
    return seconds;
}

// ----- spans ---------------------------------------------------------------

namespace {

std::vector<Span> g_own_spans;

}  // namespace

void collect_own_spans() {
    for (Span& span : glitchmask::trace::take_spans())
        if (span.name.find('.') != std::string::npos)
            g_own_spans.push_back(std::move(span));
}

const std::vector<Span>& own_spans() { return g_own_spans; }

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
    for (const Span& span : spans)
        if (span.parent != 0) children[span.parent].push_back(&span);

    std::map<std::string, SelfTime> by_name;
    for (const Span& span : spans) {
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
        if (const auto it = children.find(span.id); it != children.end())
            for (const Span* child : it->second)
                covered.emplace_back(std::max(child->begin_ns, span.begin_ns),
                                     std::min(child->end_ns, span.end_ns));
        std::sort(covered.begin(), covered.end());
        std::uint64_t covered_ns = 0, reach = span.begin_ns;
        for (const auto& [begin, end] : covered) {
            const std::uint64_t from = std::max(begin, reach);
            if (end > from) {
                covered_ns += end - from;
                reach = end;
            }
        }
        SelfTime& entry = by_name[span.name];
        entry.name = span.name;
        entry.count += 1;
        const auto duration = static_cast<double>(span.end_ns - span.begin_ns);
        entry.total_ms += duration * 1e-6;
        entry.self_ms += (duration - static_cast<double>(covered_ns)) * 1e-6;
    }
    std::vector<SelfTime> out;
    for (auto& [name, entry] : by_name) out.push_back(entry);
    return out;
}

// ----- the raw report ----------------------------------------------------

std::string render_report(const Options& options, const Report& report) {
    JsonWriter w;
    w.begin_object();
    w.member("workload", options.workload);
    w.member("seed", options.seed);
    w.member("trace", options.trace);
    w.key("stamp");
    w.begin_object();
    w.member("backend", glitchmask::eval::backend_name(report.plan.backend));
    w.member("lanes", static_cast<std::uint64_t>(report.plan.lanes));
    w.member("simd", glitchmask::support::simd_level_name(
                         glitchmask::support::active_simd_level()));
    w.member("hardware_threads",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.end_object();
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, value] : report.metrics) w.member(name, value);
    w.end_object();
    w.key("layers");
    w.begin_object();
    for (const auto& [name, value] : report.layers) w.member(name, value);
    w.end_object();
    w.member("attempted", report.attempted);
    w.key("errors");
    w.begin_array();
    for (const std::string& error : report.errors) w.value(error);
    w.end_array();
    w.end_object();
    std::string line = w.take();
    // Splice the pre-rendered members before the closing brace.
    line.pop_back();
    line += ",\"checks\":" + report.checks + ",\"detail\":" + report.detail +
            "}";
    return line;
}

}  // namespace perfbench

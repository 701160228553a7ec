// glitchmask_perfbench: runs one benchmark workload and prints its raw
// report as the last line of stdout (run.py checks and summarizes it).
//
//   glitchmask_perfbench run --workload des_tvla --seed 1 --seconds 10
//                            --trace 0 --daemon PATH --workdir DIR
//                            [--spans-out FILE]
//   glitchmask_perfbench stamp     resolved backend plan and workers
//
// Every GLITCHMASK_* variable is removed from the environment first, so a
// shell's overrides reach neither the library nor the spawned daemon.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "eval/parallel_campaign.hpp"
#include "service/json_writer.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
    std::fprintf(stderr,
                 "usage: glitchmask_perfbench run --workload NAME --seed N "
                 "--seconds S --trace 0|1 --daemon PATH --workdir DIR "
                 "[--spans-out FILE]\n"
                 "       glitchmask_perfbench stamp\n");
    return 2;
}

/// Count, total and self time per span name, as JSON.
std::string layer_self_times(const std::vector<glitchmask::trace::Span>& spans) {
    glitchmask::service::JsonWriter w;
    w.begin_array();
    for (const SelfTime& entry : self_times(spans)) {
        w.begin_object();
        w.member("span", entry.name);
        w.member("count", entry.count);
        w.member("total_ms", entry.total_ms);
        w.member("self_ms", entry.self_ms);
        w.end_object();
    }
    w.end_array();
    return w.take();
}

int run(const Options& options) {
    std::filesystem::create_directories(options.workdir);
    glitchmask::trace::set_enabled(options.trace);
    Report report;
    {
        const glitchmask::trace::ScopedSpan root("perfbench.workload");
        if (options.workload == "des_tvla") {
            report = des_tvla_workload(options);
        } else if (options.workload == "gadget_pd_attr") {
            report = gadget_pd_attr_workload(options);
        } else {
            std::fprintf(stderr, "unknown workload: %s\n",
                         options.workload.c_str());
            return 2;
        }
    }
    if (options.trace) {
        const std::string workload_detail = report.detail;
        {
            const glitchmask::trace::ScopedSpan root("perfbench.layers");
            campaign_layers(options, report);
            service_layers(options, report);
        }
        collect_own_spans();
        const std::vector<glitchmask::trace::Span>& spans = own_spans();
        if (!options.spans_out.empty())
            glitchmask::trace::write_chrome_trace(options.spans_out, spans);
        // detail = {"workload": ..., "layers": ..., "self_times": [...]}
        report.detail = "{\"workload\":" + workload_detail + ",\"layers\":" +
                        report.detail + ",\"self_times\":" +
                        layer_self_times(spans) + "}";
    }
    std::printf("%s\n", render_report(options, report).c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    scrub_glitchmask_env();
    if (argc < 2) return usage();
    const std::string command = argv[1];
    try {
        if (command == "stamp") {
            const glitchmask::eval::BackendPlan plan = default_plan(0);
            std::printf(
                "{\"backend\":\"%s\",\"lanes\":%u,\"workers\":%u}\n",
                glitchmask::eval::backend_name(plan.backend), plan.lanes,
                glitchmask::eval::resolve_workers(0));
            return 0;
        }
        if (command != "run") return usage();
        Options options;
        for (int i = 2; i + 1 < argc; i += 2) {
            const std::string key = argv[i], value = argv[i + 1];
            if (key == "--workload") options.workload = value;
            else if (key == "--seed") options.seed = std::stoull(value);
            else if (key == "--seconds") options.seconds = std::stod(value);
            else if (key == "--trace") options.trace = value == "1";
            else if (key == "--daemon") options.daemon = value;
            else if (key == "--workdir") options.workdir = value;
            else if (key == "--spans-out") options.spans_out = value;
            else return usage();
        }
        if (options.workload.empty() || options.daemon.empty() ||
            options.workdir.empty())
            return usage();
        return run(options);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "glitchmask_perfbench: %s\n", error.what());
        return 1;
    }
}

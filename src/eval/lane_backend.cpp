#include "eval/lane_backend.hpp"

#include <algorithm>
#include <stdexcept>

#include <unistd.h>

#include "support/env.hpp"
#include "support/log.hpp"

namespace glitchmask::eval {

const char* backend_name(SimBackend backend) noexcept {
    return backend == SimBackend::Compiled ? "compiled" : "event";
}

namespace {

SimBackend parse_backend(const std::string& name) {
    if (name.empty() || name == "compiled") return SimBackend::Compiled;
    if (name == "event") return SimBackend::Event;
    throw std::invalid_argument(
        "campaign config: unknown backend \"" + name +
        "\" (expected \"event\" or \"compiled\")");
}

/// The compiled width when the config leaves it open.  A pass never needs
/// to be wider than a block, because run_campaign cuts lane groups inside
/// blocks: with the default 64-trace blocks, a 512-lane pass would carry
/// 448 dead lanes.  Within that cap it takes the widest width whose
/// per-worker lane state still fits in roughly a quarter of the L2 cache.
/// The compiled engine keeps four 64-bit planes per net per 64-lane chunk
/// (value, next, mark, glitch bookkeeping), so the working set scales
/// linearly with the width; once it spills the cache, wider passes lose
/// more to memory stalls than they save in schedule replays (the 512-lane
/// rows of BENCH_batch_sim.json).  A quarter -- not half -- because the
/// power rows, the program stream and the recorder compete for the same
/// cache: on the 2 MiB-L2 reference container the half-L2 budget still
/// admitted 512 lanes for the 3802-net DES netlist, which the sweep
/// measures as ~25% slower than the 128/256-lane rows it would otherwise
/// pick.  `netlist_nets` == 0 (unknown) leaves only the block cap.
unsigned default_compiled_lanes(std::size_t netlist_nets,
                                std::size_t block_size) {
    unsigned cap = 64;
    while (cap < 64u * sim::kMaxLaneChunks && cap < block_size) cap *= 2;
    if (cap == 64 || netlist_nets == 0) return cap;
    long cache = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (cache <= 0) cache = 1 << 20;  // sysconf unsupported: assume 1 MiB
    const std::size_t budget = static_cast<std::size_t>(cache) / 4;
    const std::size_t chunk_bytes = netlist_nets * 4 * sizeof(std::uint64_t);
    unsigned lanes = 64;
    while (lanes < cap && (2u * lanes / 64u) * chunk_bytes <= budget)
        lanes *= 2;
    log::info("compiled lanes: " + std::to_string(lanes) + " (" +
              std::to_string(netlist_nets) + " nets, " +
              std::to_string(chunk_bytes / 1024) + " KiB per chunk, L2 " +
              std::to_string(cache / 1024) + " KiB, block " +
              std::to_string(block_size) + ")");
    return lanes;
}

}  // namespace

BackendPlan resolve_backend_plan(const CampaignRunOptions& run,
                                 unsigned configured_lanes,
                                 bool timing_coupling,
                                 std::size_t netlist_nets,
                                 std::size_t block_size) {
    std::string name = run.backend;
    if (name.empty()) name = env_string("GLITCHMASK_BACKEND", "");
    const SimBackend backend = parse_backend(name);

    unsigned lanes = configured_lanes;
    if (lanes == 0) lanes = static_cast<unsigned>(env_int("GLITCHMASK_LANES", 0));
    if (lanes != 0 && lanes != 1 && !sim::compiled_lane_width(lanes))
        throw std::invalid_argument(
            "campaign config: lanes must be 0 (auto), 1 (scalar), 64 "
            "(bitsliced) or 128/256/512 (compiled backend), got " +
            std::to_string(lanes));
    if (backend == SimBackend::Event && lanes > 64)
        throw std::invalid_argument(
            "campaign config: the event backend supports at most 64 lanes; "
            "use backend=compiled for wider passes");

    // Data-dependent delays cannot share one schedule across lanes, and a
    // pass narrower than 64 lanes does not exist: both run the scalar
    // event engine whatever the backend.
    if (timing_coupling || lanes == 1) {
        if (timing_coupling && lanes != 1)
            log::info(
                "timing coupling forces the scalar simulator; ignoring the "
                "lane backend");
        return BackendPlan{SimBackend::Event, 1};
    }
    if (backend == SimBackend::Event) return BackendPlan{SimBackend::Event, 64};
    if (lanes == 0) lanes = default_compiled_lanes(netlist_nets, block_size);
    return BackendPlan{SimBackend::Compiled, lanes};
}

}  // namespace glitchmask::eval

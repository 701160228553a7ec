// ThreadSanitizer stress test for the work-stealing pool.
//
// Built as a standalone binary (no gtest, no glitchmask library) directly
// from src/support/thread_pool.cpp with -fsanitize=thread, and registered
// in the tier-1 ctest run whenever the toolchain provides libtsan -- so
// every `ctest` invocation race-checks the pool even in a plain Release
// build.  The whole-library sanitizer build stays available through
// -DGLITCHMASK_SANITIZE=thread|address.
//
// The scenarios mirror how eval/parallel_campaign.hpp drives the pool:
// many more blocks than workers, per-worker lazily built state, nested
// submits, cross-thread result slots, and the streaming fold's bounded
// window with its cancel and failure exits.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "support/cancel.hpp"
#include "support/thread_pool.hpp"

namespace {

int failures = 0;

void expect(bool condition, const char* what) {
    if (!condition) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

void stress_block_pattern() {
    using glitchmask::TaskGroup;
    using glitchmask::ThreadPool;

    ThreadPool pool(4);
    constexpr std::size_t kBlocks = 512;

    // Campaign-shaped usage: lazily built per-worker state, one result
    // slot per block, each touched by exactly one task.
    std::vector<std::optional<std::uint64_t>> worker_state(pool.size());
    std::vector<std::optional<std::uint64_t>> results(kBlocks);

    TaskGroup group(pool);
    for (std::size_t b = 0; b < kBlocks; ++b)
        group.run([&, b] {
            const int id = pool.current_worker();
            std::optional<std::uint64_t>& state =
                worker_state[static_cast<std::size_t>(id)];
            if (!state.has_value()) state.emplace(0);
            *state += b;
            results[b].emplace(b * 2);
        });
    group.wait();

    std::uint64_t total = 0;
    for (const std::optional<std::uint64_t>& r : results) {
        expect(r.has_value(), "every block produced a result");
        if (r.has_value()) total += *r;
    }
    expect(total == kBlocks * (kBlocks - 1), "block results sum");
}

void stress_nested_submits() {
    using glitchmask::TaskGroup;
    using glitchmask::ThreadPool;

    ThreadPool pool(4);
    TaskGroup group(pool);
    std::atomic<std::size_t> count{0};
    for (int i = 0; i < 64; ++i)
        group.run([&] {
            for (int j = 0; j < 8; ++j)
                group.run([&] { count.fetch_add(1, std::memory_order_relaxed); });
        });
    group.wait();
    expect(count.load() == 64 * 8, "nested submits all ran");
}

void stress_exceptions() {
    using glitchmask::TaskGroup;
    using glitchmask::ThreadPool;

    ThreadPool pool(2);
    TaskGroup group(pool);
    for (int i = 0; i < 32; ++i)
        group.run([i] {
            if (i % 7 == 0) throw std::runtime_error("expected");
        });
    bool threw = false;
    try {
        group.wait();
    } catch (const std::runtime_error&) {
        threw = true;
    }
    expect(threw, "exception propagated to wait()");
}

// The streaming fold of run_sharded_blocks_checkpointed: the calling
// thread keeps at most kWindow tasks in flight beyond its folded prefix;
// each task claims the next block index when it starts, parks its result
// in a ring slot and publishes it with a release store; the caller waits
// through TaskGroup::wait_until, folds the contiguous prefix in index
// order and tops the window up.  `cancel_at` (when < kBlocks) fires the
// group's token from inside that block; `throw_at` makes that block fail.
void stress_streaming_fold(std::size_t cancel_at, std::size_t throw_at) {
    using glitchmask::CancelToken;
    using glitchmask::TaskGroup;
    using glitchmask::ThreadPool;

    constexpr std::size_t kBlocks = 256;
    constexpr std::size_t kWindow = 8;
    ThreadPool pool(4);
    CancelToken cancel;
    std::vector<std::optional<std::uint64_t>> parked(kWindow);
    std::vector<std::atomic<bool>> ready(kWindow);
    std::atomic<std::size_t> next_claim{0};
    std::atomic<bool> stopped{false};
    std::size_t folded = 0;
    std::uint64_t checksum = 0;
    bool threw = false;
    {
        TaskGroup group(pool, &cancel);
        std::size_t submitted = 0;
        auto top_up = [&] {
            for (; submitted < std::min(kBlocks, folded + kWindow); ++submitted)
                group.run([&] {
                    if (stopped.load(std::memory_order_relaxed)) return;
                    const std::size_t b =
                        next_claim.fetch_add(1, std::memory_order_acq_rel);
                    if (b == cancel_at) cancel.request();
                    if (b == throw_at) throw std::runtime_error("expected");
                    parked[b % kWindow].emplace(b * 3);
                    ready[b % kWindow].store(true, std::memory_order_release);
                });
        };
        auto fold_next = [&] {
            checksum += *parked[folded % kWindow];
            parked[folded % kWindow].reset();
            ready[folded % kWindow].store(false, std::memory_order_relaxed);
            ++folded;
        };
        top_up();
        while (folded < kBlocks && group.wait_until([&] {
                   return ready[folded % kWindow].load(
                       std::memory_order_acquire);
               })) {
            fold_next();
            top_up();
            if (cancel.requested()) break;
        }
        stopped.store(true, std::memory_order_relaxed);
        try {
            group.wait();
        } catch (const std::runtime_error&) {
            threw = true;
        }
        while (!threw && folded < kBlocks &&
               ready[folded % kWindow].load(std::memory_order_acquire))
            fold_next();
    }
    expect(checksum == (folded == 0 ? 0 : 3 * folded * (folded - 1) / 2),
           "streaming fold sums exactly the folded prefix");
    if (throw_at < kBlocks) {
        expect(threw, "streaming fold surfaced the block failure");
        expect(folded <= throw_at, "streaming fold stopped at the failure");
    } else if (cancel_at < kBlocks) {
        expect(folded > cancel_at && folded < kBlocks,
               "cancelled streaming fold kept the running blocks only");
    } else {
        expect(folded == kBlocks, "streaming fold reached every block");
    }
}

}  // namespace

int main() {
    for (int round = 0; round < 5; ++round) {
        stress_block_pattern();
        stress_nested_submits();
        stress_exceptions();
        constexpr std::size_t kNever = ~std::size_t{0};
        stress_streaming_fold(kNever, kNever);
        stress_streaming_fold(40, kNever);
        stress_streaming_fold(kNever, 40);
    }
    if (failures == 0) std::puts("thread_pool_tsan_test: all checks passed");
    return failures == 0 ? 0 : 1;
}

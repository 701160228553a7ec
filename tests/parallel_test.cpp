// Determinism contract of the sharded campaign engine: a campaign's
// statistics are a pure function of (seed, traces, block size) -- the
// worker count must not show up in a single result bit.  These tests run
// the same campaigns at 1, 2 and 4 workers and compare with exact double
// equality (EXPECT_EQ, not EXPECT_NEAR: "close" would hide a broken merge
// tree or a shared RNG stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "des/masked_des.hpp"
#include "eval/campaign.hpp"
#include "eval/des_experiments.hpp"
#include "eval/parallel_campaign.hpp"
#include "support/atomic_file.hpp"

namespace glitchmask::eval {
namespace {

TEST(ShardPlan, CoversBudgetWithFixedBlocks) {
    const ShardPlan plan{130, 64};
    EXPECT_EQ(plan.blocks(), 3u);
    EXPECT_EQ(plan.block_begin(0), 0u);
    EXPECT_EQ(plan.block_end(0), 64u);
    EXPECT_EQ(plan.block_begin(2), 128u);
    EXPECT_EQ(plan.block_end(2), 130u);  // short tail block
    EXPECT_EQ(ShardPlan{0}.blocks(), 0u);
}

TEST(TraceRng, StreamsAreDecorrelatedPerTraceAndPurpose) {
    Xoshiro256 a = trace_rng(1, kStimulusStream, 0);
    Xoshiro256 a2 = trace_rng(1, kStimulusStream, 0);
    Xoshiro256 b = trace_rng(1, kStimulusStream, 1);
    Xoshiro256 c = trace_rng(1, kNoiseStream, 0);
    EXPECT_EQ(a(), a2());
    int equal_b = 0;
    int equal_c = 0;
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t va = a();
        equal_b += (va == b());
        equal_c += (va == c());
    }
    EXPECT_LT(equal_b, 2);
    EXPECT_LT(equal_c, 2);
}

TEST(ParallelCampaign, SequenceExperimentBitExactAcrossWorkerCounts) {
    SequenceExperimentConfig config;
    config.replicas = 4;
    config.traces = 600;
    config.noise_sigma = 0.5;
    config.seed = 42;
    const core::InputSequence sequence{core::ShareId::Y0, core::ShareId::X1,
                                       core::ShareId::Y1, core::ShareId::X0};

    config.workers = 1;
    const SequenceLeakResult serial = run_sequence_experiment(sequence, config);
    for (const unsigned workers : {2u, 4u}) {
        config.workers = workers;
        const SequenceLeakResult parallel =
            run_sequence_experiment(sequence, config);
        EXPECT_EQ(parallel.max_abs_t1, serial.max_abs_t1) << workers;
        EXPECT_EQ(parallel.max_abs_t2, serial.max_abs_t2) << workers;
        EXPECT_EQ(parallel.argmax_cycle, serial.argmax_cycle) << workers;
    }
}

TEST(ParallelCampaign, DesTvlaBitExactAcrossWorkerCounts) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    DesTvlaConfig config;
    config.traces = 60;
    config.seed = 9;
    config.block_size = 16;  // several blocks even at this tiny budget

    config.workers = 1;
    const DesTvlaResult serial = run_des_tvla(core, config);
    for (const unsigned workers : {2u, 4u}) {
        config.workers = workers;
        const DesTvlaResult parallel = run_des_tvla(core, config);
        for (int order = 1; order <= config.max_test_order; ++order) {
            EXPECT_EQ(parallel.max_abs_t[order], serial.max_abs_t[order])
                << "order " << order << " workers " << workers;
            EXPECT_EQ(parallel.argmax[order], serial.argmax[order])
                << "order " << order << " workers " << workers;
        }
        EXPECT_EQ(parallel.toggles, serial.toggles) << workers;
        // Full t-curves, not just the maxima.
        for (int order = 1; order <= config.max_test_order; ++order) {
            const std::vector<double> ts = serial.campaign.t_curve(order);
            const std::vector<double> tp = parallel.campaign.t_curve(order);
            ASSERT_EQ(ts.size(), tp.size());
            for (std::size_t i = 0; i < ts.size(); ++i)
                EXPECT_EQ(tp[i], ts[i]) << "order " << order << " sample " << i;
        }
    }
}

TEST(ParallelCampaign, MeanPowerTraceBitExactAcrossWorkerCounts) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::vector<double> serial =
        mean_power_trace(core, /*traces=*/48, /*seed=*/5, /*placement_seed=*/1,
                         /*workers=*/1);
    for (const unsigned workers : {2u, 4u}) {
        const std::vector<double> parallel =
            mean_power_trace(core, 48, 5, 1, workers);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(parallel[i], serial[i]) << "sample " << i;
    }
}

TEST(BatchLanes, DesTvlaBitExactAcrossLaneConfigs) {
    // The bitsliced engine must reproduce the scalar campaign bit for bit:
    // full t-curves, argmaxima and the toggle count, with PRNG on and off,
    // including a partial final lane group (80 = 64 + 16).
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    DesTvlaConfig config;
    config.traces = 80;
    config.seed = 11;
    config.workers = 2;
    config.block_size = 64;

    for (const bool prng_on : {true, false}) {
        config.prng_on = prng_on;
        config.lanes = 1;
        const DesTvlaResult scalar = run_des_tvla(core, config);
        config.lanes = 64;
        const DesTvlaResult batch = run_des_tvla(core, config);
        EXPECT_EQ(batch.toggles, scalar.toggles) << "prng " << prng_on;
        for (int order = 1; order <= config.max_test_order; ++order) {
            EXPECT_EQ(batch.max_abs_t[order], scalar.max_abs_t[order])
                << "prng " << prng_on << " order " << order;
            EXPECT_EQ(batch.argmax[order], scalar.argmax[order])
                << "prng " << prng_on << " order " << order;
            const std::vector<double> ts = scalar.campaign.t_curve(order);
            const std::vector<double> tb = batch.campaign.t_curve(order);
            ASSERT_EQ(ts.size(), tb.size());
            for (std::size_t i = 0; i < ts.size(); ++i)
                EXPECT_EQ(tb[i], ts[i])
                    << "prng " << prng_on << " order " << order << " sample "
                    << i;
        }
    }
}

TEST(BatchLanes, TimingCouplingFallsBackToScalar) {
    // Data-dependent delays break the shared-schedule premise, so a
    // 64-lane request under timing coupling must silently run the scalar
    // engine -- and therefore reproduce the scalar goldens exactly.
    const des::MaskedDesCore core(des::MaskedDesOptions{
        .flavor = des::CoreFlavor::PD, .delayunit_luts = 10});
    DesTvlaConfig config;
    config.traces = 24;
    config.seed = 3;
    config.coupling.timing_enabled = true;

    config.lanes = 1;
    const DesTvlaResult scalar = run_des_tvla(core, config);
    for (const unsigned lanes : {0u, 64u}) {
        config.lanes = lanes;
        const DesTvlaResult fallback = run_des_tvla(core, config);
        EXPECT_EQ(fallback.toggles, scalar.toggles) << "lanes " << lanes;
        for (int order = 1; order <= config.max_test_order; ++order)
            EXPECT_EQ(fallback.max_abs_t[order], scalar.max_abs_t[order])
                << "lanes " << lanes << " order " << order;
    }
}

TEST(BatchLanes, MeanPowerTraceBitExactAcrossLaneConfigs) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::vector<double> scalar =
        mean_power_trace(core, /*traces=*/48, /*seed=*/5, /*placement_seed=*/1,
                         /*workers=*/2, /*lanes=*/1);
    const std::vector<double> batch =
        mean_power_trace(core, 48, 5, 1, 2, 64);
    ASSERT_EQ(batch.size(), scalar.size());
    for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_EQ(batch[i], scalar[i]) << "sample " << i;
}

TEST(ParallelCampaign, BlockSizeIsPartOfTheResultIdentity) {
    // Changing the block size changes the merge tree, which is allowed to
    // move the low bits -- but the statistics must stay equivalent.  This
    // documents the contract: bit-exactness is promised across *worker
    // counts*, not across block sizes.
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    DesTvlaConfig config;
    config.traces = 60;
    config.seed = 9;
    config.workers = 2;

    config.block_size = 16;
    const DesTvlaResult a = run_des_tvla(core, config);
    config.block_size = 60;
    const DesTvlaResult b = run_des_tvla(core, config);
    EXPECT_EQ(a.toggles, b.toggles);  // stimulus identical per trace
    for (int order = 1; order <= config.max_test_order; ++order)
        EXPECT_NEAR(a.max_abs_t[order], b.max_abs_t[order],
                    1e-6 * std::max(1.0, a.max_abs_t[order]))
            << "order " << order;
}

// ----- the streaming runner ---------------------------------------------
//
// run_sharded_blocks_checkpointed driven directly with a synthetic
// accumulator that records the exact merge tree: a postfix transcript of
// block indices and merge nodes.  Two results are == only when the same
// blocks were merged in the same shape, so the tests below pin the fold
// order, not merely the multiset of blocks.

constexpr std::uint64_t kMergeNode = std::numeric_limits<std::uint64_t>::max();

/// Accumulators alive at once (moved-from ones hold no token).
struct LiveCount {
    std::atomic<int> now{0};
    std::atomic<int> peak{0};
};

struct LiveToken {
    explicit LiveToken(LiveCount& count) : count_(count) {
        const int n = count_.now.fetch_add(1) + 1;
        int seen = count_.peak.load();
        while (n > seen && !count_.peak.compare_exchange_weak(seen, n)) {
        }
    }
    ~LiveToken() { count_.now.fetch_sub(1); }
    LiveToken(const LiveToken&) = delete;
    LiveToken& operator=(const LiveToken&) = delete;

private:
    LiveCount& count_;
};

struct TreeAcc {
    std::vector<std::uint64_t> postfix;
    std::unique_ptr<LiveToken> live;
};

/// The fixed pairwise tree the runner promises: round 1 merges
/// (0,1)(2,3)..., round 2 merges (0,2)(4,6)..., and so on.
std::vector<std::uint64_t> reference_tree(std::size_t blocks) {
    std::vector<std::vector<std::uint64_t>> nodes(blocks);
    for (std::size_t b = 0; b < blocks; ++b) nodes[b] = {b};
    for (std::size_t step = 1; step < blocks; step *= 2)
        for (std::size_t i = 0; i + step < blocks; i += 2 * step) {
            nodes[i].insert(nodes[i].end(), nodes[i + step].begin(),
                            nodes[i + step].end());
            nodes[i].push_back(kMergeNode);
        }
    return nodes[0];
}

struct StreamRun {
    std::vector<std::uint64_t> tree;
    CampaignProgress progress;
    std::vector<std::size_t> checkpoints;
};

/// Runs `blocks` one-trace blocks on `workers` threads.  `on_block` runs
/// inside run_block (delays, throws, cancels); `hook` chains behind the
/// checkpoint recorder.
StreamRun run_stream(std::size_t blocks, unsigned workers,
                     CheckpointPolicy policy,
                     const std::function<void(std::size_t)>& on_block = {},
                     LiveCount* live = nullptr) {
    LiveCount unused;
    LiveCount& count = live != nullptr ? *live : unused;
    ThreadPool pool(workers);
    StreamRun out;
    auto hook = std::move(policy.on_checkpoint);
    policy.on_checkpoint = [&](std::size_t completed) {
        out.checkpoints.push_back(completed);
        if (hook) hook(completed);
    };
    auto make_acc = [&] {
        return TreeAcc{{}, std::make_unique<LiveToken>(count)};
    };
    const CampaignFingerprint fingerprint{1, 2, blocks, 1, 3};
    TreeAcc merged = run_sharded_blocks_checkpointed(
        pool, ShardPlan{blocks, 1}, [] { return 0; }, make_acc,
        [&](int&, std::size_t begin, std::size_t, TreeAcc& acc) {
            if (on_block) on_block(begin);
            acc.postfix.push_back(begin);
        },
        [](TreeAcc& into, const TreeAcc& from) {
            into.postfix.insert(into.postfix.end(), from.postfix.begin(),
                                from.postfix.end());
            into.postfix.push_back(kMergeNode);
        },
        policy, fingerprint,
        [](const TreeAcc& acc, SnapshotWriter& w) {
            w.u64(acc.postfix.size());
            for (const std::uint64_t token : acc.postfix) w.u64(token);
        },
        [&](SnapshotReader& in) {
            TreeAcc acc = make_acc();
            acc.postfix.resize(in.u64());
            for (std::uint64_t& token : acc.postfix) token = in.u64();
            return acc;
        },
        &out.progress);
    out.tree = std::move(merged.postfix);
    return out;
}

/// Low-index blocks run longest, so later blocks finish first and must
/// wait in the ring for the prefix.
void slow_low_blocks(std::size_t block) {
    if (block < 3)
        std::this_thread::sleep_for(std::chrono::milliseconds(20 - 5 * block));
}

std::string snapshot_file(const std::string& name) {
    const std::string path = ::testing::TempDir() + "glitchmask_stream_" + name;
    std::remove(path.c_str());
    return path;
}

std::uint64_t snapshot_blocks(const std::string& path) {
    const auto bytes = read_file_if_exists(path);
    if (!bytes) return 0;
    SnapshotReader in(*bytes);
    return read_checkpoint_header(in).completed_blocks;
}

TEST(StreamingRunner, OutOfOrderCompletionsFoldTheFixedTree) {
    for (const std::size_t blocks : {1u, 7u, 33u}) {
        const std::vector<std::uint64_t> expected = reference_tree(blocks);
        for (unsigned workers = 1; workers <= 4; ++workers) {
            CheckpointPolicy policy;
            policy.every_blocks = 4;
            const StreamRun run =
                run_stream(blocks, workers, policy, slow_low_blocks);
            EXPECT_EQ(run.tree, expected)
                << blocks << " blocks, " << workers << " workers";
            EXPECT_FALSE(run.progress.cancelled);
            EXPECT_EQ(run.progress.completed_blocks, blocks);
        }
    }
}

TEST(StreamingRunner, CheckpointsLandWhereWavesEnded) {
    // 10 blocks at every_blocks = 3: one worker gives a window of 3
    // blocks, two workers a window of 2 x 2 = 4.
    CheckpointPolicy policy;
    policy.every_blocks = 3;
    EXPECT_EQ(run_stream(10, 1, policy, slow_low_blocks).checkpoints,
              (std::vector<std::size_t>{3, 6, 9, 10}));
    EXPECT_EQ(run_stream(10, 2, policy, slow_low_blocks).checkpoints,
              (std::vector<std::size_t>{4, 8, 10}));

    // Resumed mid-run: a hook that throws at the first checkpoint leaves
    // exactly a 3-block snapshot; the resumed run counts its windows from
    // there.
    const std::string path = snapshot_file("marks.gmsnap");
    CheckpointPolicy first = policy;
    first.path = path;
    first.on_checkpoint = [](std::size_t) {
        throw std::runtime_error("stop after the first checkpoint");
    };
    EXPECT_THROW((void)run_stream(10, 1, first, slow_low_blocks),
                 std::runtime_error);
    ASSERT_EQ(snapshot_blocks(path), 3u);

    CheckpointPolicy resume = policy;
    resume.path = path;
    const StreamRun resumed = run_stream(10, 2, resume, slow_low_blocks);
    EXPECT_TRUE(resumed.progress.resumed);
    EXPECT_EQ(resumed.checkpoints, (std::vector<std::size_t>{7, 10}));
    EXPECT_EQ(resumed.tree, reference_tree(10));
    std::remove(path.c_str());
}

TEST(StreamingRunner, ThrowingBlockSurfacesWithoutFoldingPastIt) {
    constexpr std::size_t kBad = 5;
    for (unsigned workers = 1; workers <= 4; ++workers) {
        const std::string path = snapshot_file("throw.gmsnap");
        CheckpointPolicy policy;
        policy.path = path;
        policy.every_blocks = 1;
        std::vector<std::size_t> seen;
        policy.on_checkpoint = [&](std::size_t completed) {
            seen.push_back(completed);
        };
        try {
            (void)run_stream(16, workers, policy, [](std::size_t block) {
                slow_low_blocks(block);
                if (block == kBad) throw std::runtime_error("block 5 failed");
            });
            FAIL() << "the failing block was swallowed, workers=" << workers;
        } catch (const std::runtime_error& error) {
            EXPECT_EQ(std::string(error.what()), "block 5 failed");
        }
        for (const std::size_t completed : seen)
            EXPECT_LE(completed, kBad) << "workers=" << workers;
        EXPECT_LE(snapshot_blocks(path), kBad) << "workers=" << workers;
        std::remove(path.c_str());
    }
}

TEST(StreamingRunner, CancelThenResumeMatchesUninterruptedRun) {
    constexpr std::size_t kBlocks = 24;
    const std::vector<std::uint64_t> expected = reference_tree(kBlocks);
    for (unsigned workers = 1; workers <= 4; ++workers) {
        // Cancelled from the checkpoint hook, and from inside a running
        // block (the way a watchdog or a signal lands mid-block).
        for (const bool from_hook : {true, false}) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         (from_hook ? " hook" : " block"));
            const std::string path = snapshot_file("cancel.gmsnap");
            CancelToken token;
            CheckpointPolicy policy;
            policy.path = path;
            policy.every_blocks = 2;
            policy.cancel = &token;
            if (from_hook)
                policy.on_checkpoint = [&token](std::size_t completed) {
                    if (completed >= 4) token.request();
                };
            const StreamRun partial =
                run_stream(kBlocks, workers, policy, [&](std::size_t block) {
                    slow_low_blocks(block);
                    if (!from_hook && block == 6) token.request();
                });
            EXPECT_TRUE(partial.progress.cancelled);
            EXPECT_LT(partial.progress.completed_blocks, kBlocks);
            ASSERT_FALSE(partial.checkpoints.empty());
            EXPECT_EQ(partial.checkpoints.back(),
                      partial.progress.completed_blocks);
            EXPECT_EQ(snapshot_blocks(path), partial.progress.completed_blocks);

            CheckpointPolicy resume;
            resume.path = path;
            resume.every_blocks = 2;
            const StreamRun resumed = run_stream(kBlocks, workers, resume);
            EXPECT_TRUE(resumed.progress.resumed);
            EXPECT_FALSE(resumed.progress.cancelled);
            EXPECT_EQ(resumed.tree, expected);
            std::remove(path.c_str());
        }
    }
}

TEST(StreamingRunner, AtMostOneWindowOfBlockAccumulatorsIsAlive) {
    // Besides the merge frontier (at most bit_width(blocks) entries), no
    // more than the window's W block accumulators may exist at once.
    constexpr std::size_t kBlocks = 40;
    for (unsigned workers = 1; workers <= 4; ++workers) {
        CheckpointPolicy policy;
        policy.every_blocks = 4;
        const std::size_t window = std::max<std::size_t>(4, 2 * workers);
        LiveCount live;
        const StreamRun run =
            run_stream(kBlocks, workers, policy, slow_low_blocks, &live);
        EXPECT_EQ(run.tree, reference_tree(kBlocks));
        EXPECT_LE(static_cast<std::size_t>(live.peak.load()),
                  window + std::bit_width(kBlocks))
            << "workers=" << workers;
        EXPECT_EQ(live.now.load(), 0);
    }
}

}  // namespace
}  // namespace glitchmask::eval

// End-to-end fault injection for the crash-safe campaign runtime.
//
// The resume contract is *bit-identity*: a campaign killed at any
// checkpoint boundary -- SIGKILL (no cleanup whatsoever) or a cooperative
// SIGINT-style cancel -- and later resumed must produce exactly the
// statistics of an uninterrupted run, at any worker or lane count.  All
// comparisons here are EXPECT_EQ on raw doubles, never EXPECT_NEAR.
//
// The SIGKILL test forks a child that runs the campaign and kills itself
// from the on_checkpoint hook; fork is safe here because campaign thread
// pools are created and joined inside each driver call, so the parent has
// no live threads at fork time.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "des/masked_des.hpp"
#include "eval/campaign.hpp"
#include "eval/des_experiments.hpp"
#include "eval/lane_backend.hpp"
#include "support/atomic_file.hpp"
#include "support/campaign_error.hpp"
#include "support/cancel.hpp"

namespace glitchmask::eval {
namespace {

std::string temp_snapshot(const std::string& name) {
    const std::string path = ::testing::TempDir() + "glitchmask_" + name;
    std::remove(path.c_str());
    return path;
}

DesTvlaConfig small_campaign(const std::string& checkpoint_path) {
    DesTvlaConfig config;
    config.traces = 96;
    config.seed = 23;
    config.block_size = 8;  // 12 blocks: room for several checkpoints
    config.lanes = 1;       // scalar: cheap and exercises the wrapped path
    config.workers = 2;
    config.run.checkpoint_path = checkpoint_path;
    config.run.checkpoint_every = 2;
    return config;
}

void expect_identical(const DesTvlaResult& a, const DesTvlaResult& b,
                      const std::string& label) {
    EXPECT_EQ(a.toggles, b.toggles) << label;
    for (int order = 1; order <= 3; ++order) {
        const std::vector<double> ta = a.campaign.t_curve(order);
        const std::vector<double> tb = b.campaign.t_curve(order);
        ASSERT_EQ(ta.size(), tb.size()) << label;
        for (std::size_t i = 0; i < ta.size(); ++i)
            EXPECT_EQ(ta[i], tb[i])
                << label << " order " << order << " sample " << i;
    }
}

TEST(CampaignResume, CheckpointedRunMatchesPlainRunBitForBit) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("plain_vs_ckpt.gmsnap");

    DesTvlaConfig plain = small_campaign("");
    plain.run.checkpoint_every = 0;
    const DesTvlaResult baseline = run_des_tvla(core, plain);

    const DesTvlaConfig checkpointed = small_campaign(path);
    const DesTvlaResult with_snapshots = run_des_tvla(core, checkpointed);

    expect_identical(baseline, with_snapshots, "checkpointed");
    EXPECT_FALSE(with_snapshots.cancelled);
    EXPECT_FALSE(with_snapshots.resumed);
    EXPECT_EQ(with_snapshots.completed_traces, checkpointed.traces);
    std::remove(path.c_str());
}

TEST(CampaignResume, SigkillMidRunThenResumeIsBitIdentical) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("sigkill.gmsnap");

    DesTvlaConfig plain = small_campaign("");
    const DesTvlaResult baseline = run_des_tvla(core, plain);

    // Resume must be bit-identical regardless of the worker count on
    // either side of the kill.
    for (const unsigned resume_workers : {1u, 4u}) {
        std::remove(path.c_str());
        const pid_t child = fork();
        ASSERT_GE(child, 0) << "fork failed";
        if (child == 0) {
            // Child: run with a hook that SIGKILLs the process after the
            // second checkpoint -- no destructors, no flushes, exactly
            // like an OOM kill or a power cut mid-campaign.
            DesTvlaConfig cfg = small_campaign(path);
            cfg.run.on_checkpoint = [](std::size_t completed_blocks) {
                if (completed_blocks >= 4) ::kill(::getpid(), SIGKILL);
            };
            (void)run_des_tvla(core, cfg);
            ::_exit(0);  // not reached
        }
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
        ASSERT_EQ(WTERMSIG(status), SIGKILL);

        // The snapshot left behind must be a valid mid-run checkpoint.
        ASSERT_TRUE(read_file_if_exists(path).has_value());

        DesTvlaConfig resume = small_campaign(path);
        resume.workers = resume_workers;
        const DesTvlaResult resumed = run_des_tvla(core, resume);
        EXPECT_TRUE(resumed.resumed) << resume_workers;
        EXPECT_FALSE(resumed.cancelled) << resume_workers;
        EXPECT_EQ(resumed.completed_traces, resume.traces) << resume_workers;
        expect_identical(baseline, resumed,
                         "resume workers=" + std::to_string(resume_workers));
    }
    std::remove(path.c_str());
}

TEST(CampaignResume, CancelledRunResumesToIdenticalResult) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("cancel.gmsnap");

    DesTvlaConfig plain = small_campaign("");
    const DesTvlaResult baseline = run_des_tvla(core, plain);

    // Phase 1: cooperative cancel (the SIGINT path routes a signal into
    // exactly this token; tests fire it from the checkpoint hook to make
    // the interruption point deterministic).
    CancelToken token;
    DesTvlaConfig cancelled_cfg = small_campaign(path);
    cancelled_cfg.run.cancel = &token;
    cancelled_cfg.run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 4) token.request();
    };
    const DesTvlaResult partial = run_des_tvla(core, cancelled_cfg);
    EXPECT_TRUE(partial.cancelled);
    EXPECT_LT(partial.completed_traces, cancelled_cfg.traces);
    EXPECT_GT(partial.completed_traces, 0u);
    // The partial statistics cover exactly the completed prefix.
    EXPECT_EQ(partial.campaign.count(true) + partial.campaign.count(false),
              static_cast<double>(partial.completed_traces));

    // Phase 2: resume without the token -> runs to completion.
    const DesTvlaConfig resume = small_campaign(path);
    const DesTvlaResult resumed = run_des_tvla(core, resume);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_FALSE(resumed.cancelled);
    expect_identical(baseline, resumed, "resume after cancel");
    std::remove(path.c_str());
}

TEST(CampaignResume, SigintViaScopedSignalCancelStopsGracefully) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("sigint.gmsnap");

    CancelToken token;
    ScopedSignalCancel guard(token);
    DesTvlaConfig cfg = small_campaign(path);
    cfg.run.cancel = &token;
    cfg.run.on_checkpoint = [](std::size_t completed_blocks) {
        if (completed_blocks >= 2) std::raise(SIGINT);  // a real Ctrl-C
    };
    const DesTvlaResult partial = run_des_tvla(core, cfg);
    EXPECT_TRUE(partial.cancelled);
    EXPECT_LT(partial.completed_traces, cfg.traces);
    ASSERT_TRUE(read_file_if_exists(path).has_value());

    // And the interrupted run resumes to the uninterrupted result.
    token.reset();
    DesTvlaConfig plain = small_campaign("");
    const DesTvlaResult baseline = run_des_tvla(core, plain);
    DesTvlaConfig resume = small_campaign(path);
    resume.run.cancel = &token;  // armed but never fired this time
    const DesTvlaResult resumed = run_des_tvla(core, resume);
    EXPECT_TRUE(resumed.resumed);
    expect_identical(baseline, resumed, "resume after SIGINT");
    std::remove(path.c_str());
}

TEST(CampaignResume, ResumeAcrossLaneConfigsIsBitIdentical) {
    // A snapshot written by the scalar engine must seed the bitsliced one
    // (and vice versa): lanes are absent from the fingerprint because the
    // two paths are proven bit-identical.  The backend is pinned to the
    // event engine because this test is about its lane axis (scalar and
    // 64-lane bitsliced); the compiled default and the switch between
    // backends are covered by CompiledSim.BackendSwitchOnResumeIsBitIdentical.
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("lanes.gmsnap");

    DesTvlaConfig plain = small_campaign("");
    plain.run.backend = "event";
    const DesTvlaResult baseline = run_des_tvla(core, plain);

    CancelToken token;
    DesTvlaConfig scalar_cfg = small_campaign(path);
    scalar_cfg.run.backend = "event";
    scalar_cfg.lanes = 1;
    scalar_cfg.run.cancel = &token;
    scalar_cfg.run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 4) token.request();
    };
    const DesTvlaResult partial = run_des_tvla(core, scalar_cfg);
    ASSERT_TRUE(partial.cancelled);

    DesTvlaConfig batch_resume = small_campaign(path);
    batch_resume.run.backend = "event";
    batch_resume.lanes = 64;
    const DesTvlaResult resumed = run_des_tvla(core, batch_resume);
    EXPECT_TRUE(resumed.resumed);
    expect_identical(baseline, resumed, "scalar snapshot, bitsliced resume");
    std::remove(path.c_str());
}

TEST(CampaignResume, CorruptSnapshotIsRejectedNeverReadAsData) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("corrupt.gmsnap");

    // Produce a genuine mid-run snapshot.
    CancelToken token;
    DesTvlaConfig cfg = small_campaign(path);
    cfg.run.cancel = &token;
    cfg.run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 4) token.request();
    };
    (void)run_des_tvla(core, cfg);
    auto bytes = read_file_if_exists(path);
    ASSERT_TRUE(bytes.has_value());

    // Bit flip in the middle of the accumulator payload.
    std::vector<std::uint8_t> flipped = *bytes;
    flipped[flipped.size() / 2] ^= 0x01;
    atomic_write_file(path, flipped);
    try {
        (void)run_des_tvla(core, small_campaign(path));
        FAIL() << "bit-flipped snapshot was accepted";
    } catch (const CampaignError& e) {
        EXPECT_EQ(e.kind(), CampaignErrorKind::CorruptSnapshot);
    }

    // Truncation (torn write simulated past the atomic-rename guarantee).
    std::vector<std::uint8_t> truncated(*bytes);
    truncated.resize(truncated.size() / 2);
    atomic_write_file(path, truncated);
    try {
        (void)run_des_tvla(core, small_campaign(path));
        FAIL() << "truncated snapshot was accepted";
    } catch (const CampaignError& e) {
        EXPECT_EQ(e.kind(), CampaignErrorKind::CorruptSnapshot);
    }
    std::remove(path.c_str());
}

TEST(CampaignResume, ConfigMismatchOnResumeNamesTheField) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("mismatch.gmsnap");

    CancelToken token;
    DesTvlaConfig cfg = small_campaign(path);
    cfg.run.cancel = &token;
    cfg.run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 2) token.request();
    };
    (void)run_des_tvla(core, cfg);
    ASSERT_TRUE(read_file_if_exists(path).has_value());

    DesTvlaConfig other_seed = small_campaign(path);
    other_seed.seed = 999;
    try {
        (void)run_des_tvla(core, other_seed);
        FAIL() << "seed mismatch accepted on resume";
    } catch (const CampaignError& e) {
        EXPECT_EQ(e.kind(), CampaignErrorKind::ConfigMismatch);
        EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
    }

    DesTvlaConfig other_noise = small_campaign(path);
    other_noise.noise_sigma = 2.5;  // folded into the payload hash
    try {
        (void)run_des_tvla(core, other_noise);
        FAIL() << "noise mismatch accepted on resume";
    } catch (const CampaignError& e) {
        EXPECT_EQ(e.kind(), CampaignErrorKind::ConfigMismatch);
    }
    std::remove(path.c_str());
}

TEST(CampaignResume, MeanPowerTraceCheckpointAndResume) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string path = temp_snapshot("mean_power.gmsnap");

    const std::vector<double> baseline =
        mean_power_trace(core, /*traces=*/320, /*seed=*/5);

    CancelToken token;
    CampaignRunOptions run;
    run.checkpoint_path = path;
    run.checkpoint_every = 1;
    run.cancel = &token;
    run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 1) token.request();
    };
    CampaignProgress progress;
    // workers=1 keeps the window at 2 blocks: the cancel lands at the
    // first checkpoint (2 blocks), the at most 2 blocks then in flight
    // finish and fold, and the run still stops short of its 5 blocks of
    // 64 traces.
    const std::vector<double> partial =
        mean_power_trace(core, 320, 5, 1, /*workers=*/1, 0, run, &progress);
    EXPECT_TRUE(progress.cancelled);
    EXPECT_LT(progress.completed_traces, 320u);
    EXPECT_EQ(partial.size(), baseline.size());  // still a full-width trace

    CampaignRunOptions resume;
    resume.checkpoint_path = path;
    CampaignProgress resumed_progress;
    const std::vector<double> resumed =
        mean_power_trace(core, 320, 5, 1, 2, 0, resume, &resumed_progress);
    EXPECT_TRUE(resumed_progress.resumed);
    ASSERT_EQ(resumed.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i)
        EXPECT_EQ(resumed[i], baseline[i]) << "sample " << i;
    std::remove(path.c_str());
}

TEST(CampaignResume, SequenceExperimentCheckpointAndResume) {
    const core::InputSequence sequence{core::ShareId::Y0, core::ShareId::X1,
                                       core::ShareId::Y1, core::ShareId::X0};
    SequenceExperimentConfig config;
    config.replicas = 2;
    config.traces = 256;
    config.seed = 42;
    config.block_size = 16;
    config.workers = 2;

    const SequenceLeakResult baseline =
        run_sequence_experiment(sequence, config);
    EXPECT_EQ(baseline.completed_traces, config.traces);

    const std::string path = temp_snapshot("sequence.gmsnap");
    CancelToken token;
    SequenceExperimentConfig interrupted = config;
    interrupted.run.checkpoint_path = path;
    interrupted.run.checkpoint_every = 2;
    interrupted.run.cancel = &token;
    interrupted.run.on_checkpoint = [&token](std::size_t completed_blocks) {
        if (completed_blocks >= 4) token.request();
    };
    const SequenceLeakResult partial =
        run_sequence_experiment(sequence, interrupted);
    EXPECT_TRUE(partial.cancelled);
    EXPECT_LT(partial.completed_traces, config.traces);

    SequenceExperimentConfig resume = config;
    resume.run.checkpoint_path = path;
    const SequenceLeakResult resumed =
        run_sequence_experiment(sequence, resume);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.max_abs_t1, baseline.max_abs_t1);
    EXPECT_EQ(resumed.max_abs_t2, baseline.max_abs_t2);
    EXPECT_EQ(resumed.argmax_cycle, baseline.argmax_cycle);
    std::remove(path.c_str());
}

TEST(CampaignResume, AllSequencesCheckpointAndReportToOneFileEach) {
    // An explicit checkpoint path, report path or campaign id names one
    // sweep, not one campaign: each of the 24 sequences must get its own
    // tagged file, or the second sequence would refuse the first's
    // snapshot as a config mismatch.
    SequenceExperimentConfig config;
    config.replicas = 2;
    config.traces = 64;
    config.seed = 8;
    config.block_size = 32;
    config.workers = 2;
    const std::vector<SequenceLeakResult> baseline = run_all_sequences(config);
    ASSERT_EQ(baseline.size(), 24u);

    const std::string dir = ::testing::TempDir();
    SequenceExperimentConfig explicit_paths = config;
    explicit_paths.run.checkpoint_path = temp_snapshot("sweep.gmsnap");
    explicit_paths.run.report_path = dir + "glitchmask_sweep.report.json";
    std::vector<SequenceLeakResult> first;
    ASSERT_NO_THROW(first = run_all_sequences(explicit_paths));
    // A second sweep resumes every sequence from its own snapshot.
    const std::vector<SequenceLeakResult> again =
        run_all_sequences(explicit_paths);
    ASSERT_EQ(first.size(), 24u);
    ASSERT_EQ(again.size(), 24u);
    for (std::size_t i = 0; i < 24; ++i) {
        EXPECT_EQ(first[i].max_abs_t1, baseline[i].max_abs_t1) << i;
        EXPECT_EQ(again[i].max_abs_t1, baseline[i].max_abs_t1) << i;
        EXPECT_TRUE(again[i].resumed) << i;
    }
    for (const SequenceLeakResult& result : first) {
        std::string tag = "seq_";
        for (const core::ShareId slot : result.sequence)
            tag += static_cast<char>('0' + static_cast<int>(slot));
        const std::string snapshot = dir + "glitchmask_sweep_" + tag + ".gmsnap";
        const std::string report =
            dir + "glitchmask_sweep_" + tag + ".report.json";
        EXPECT_TRUE(read_file_if_exists(snapshot).has_value()) << snapshot;
        EXPECT_TRUE(read_file_if_exists(report).has_value()) << report;
        std::remove(snapshot.c_str());
        std::remove(report.c_str());
    }
    EXPECT_FALSE(read_file_if_exists(explicit_paths.run.checkpoint_path));

    // A campaign id under GLITCHMASK_CHECKPOINT_DIR is tagged the same way.
    SequenceExperimentConfig with_id = config;
    with_id.run.campaign_id = "glitchmask_sweep_id";
    ::setenv("GLITCHMASK_CHECKPOINT_DIR", dir.c_str(), 1);
    std::vector<SequenceLeakResult> by_id;
    EXPECT_NO_THROW(by_id = run_all_sequences(with_id));
    ::unsetenv("GLITCHMASK_CHECKPOINT_DIR");
    EXPECT_EQ(by_id.size(), 24u);
    for (const SequenceLeakResult& result : by_id) {
        std::string tag = "seq_";
        for (const core::ShareId slot : result.sequence)
            tag += static_cast<char>('0' + static_cast<int>(slot));
        const std::string snapshot =
            dir + "/glitchmask_sweep_id_" + tag + ".gmsnap";
        EXPECT_TRUE(read_file_if_exists(snapshot).has_value()) << snapshot;
        std::remove(snapshot.c_str());
    }
}

TEST(CampaignValidation, RejectsDegenerateConfigsNamingTheField) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});

    DesTvlaConfig zero_traces;
    zero_traces.traces = 0;
    try {
        (void)run_des_tvla(core, zero_traces);
        FAIL() << "traces=0 accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("traces"), std::string::npos);
    }

    DesTvlaConfig zero_block;
    zero_block.traces = 8;
    zero_block.block_size = 0;
    try {
        (void)run_des_tvla(core, zero_block);
        FAIL() << "block_size=0 accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("block_size"), std::string::npos);
    }

    DesTvlaConfig bad_lanes;
    bad_lanes.traces = 8;
    bad_lanes.lanes = 7;
    try {
        (void)run_des_tvla(core, bad_lanes);
        FAIL() << "lanes=7 accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("lanes"), std::string::npos);
    }

    EXPECT_THROW(validate_campaign_config(0, 64), std::invalid_argument);
    EXPECT_THROW(validate_campaign_config(10, 0), std::invalid_argument);
    EXPECT_NO_THROW(validate_campaign_config(10, 64));
    // Pairs whose block arithmetic (traces + block_size - 1) would wrap.
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    EXPECT_THROW(validate_campaign_config(2, kMax), std::invalid_argument);
    EXPECT_THROW(validate_campaign_config(kMax, 2), std::invalid_argument);
    EXPECT_NO_THROW(validate_campaign_config(1, kMax));
    EXPECT_NO_THROW(validate_campaign_config(kMax, 1));
    // Lane widths are checked where the plan is resolved.
    const CampaignRunOptions run;
    EXPECT_THROW((void)resolve_backend_plan(run, 2, false), std::invalid_argument);
    EXPECT_NO_THROW((void)resolve_backend_plan(run, 0, false));
    EXPECT_NO_THROW((void)resolve_backend_plan(run, 1, false));
    EXPECT_NO_THROW((void)resolve_backend_plan(run, 64, false));
}

}  // namespace
}  // namespace glitchmask::eval

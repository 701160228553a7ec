// Golden pins for the four campaign kinds.
//
// The other campaign suites compare paths against each other with ==
// (workers, lanes, backends, resume), so a change that moved every path
// the same way would pass all of them.  This suite pins absolute values
// instead: the raw bits of max|t| per order, the DES toggle count, an
// FNV-64 digest of the mean-power vector, the attribution top-3 and an
// FNV-64 digest of the final .gmsnap bytes (written after every block).
// Each kind runs on the scalar engine, the 64-lane event engine and the
// 128-lane compiled engine; the backend is set explicitly so the
// GLITCHMASK_BACKEND environment cannot redirect a row.
//
// Every row of a kind shares every constant, the snapshot digest
// included: the engines are bit-identical and neither the backend nor the
// lane width folds into the snapshot's fingerprint.  These constants are
// never re-baselined by a refactor: a change that moves one is a change
// of results.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "des/masked_des.hpp"
#include "eval/campaign.hpp"
#include "eval/des_experiments.hpp"
#include "eval/gadget_tvla.hpp"
#include "support/atomic_file.hpp"

namespace glitchmask::eval {
namespace {

enum class Engine { Scalar, Event64, Compiled128 };

/// Each engine runs twice: once writing a snapshot after every block and
/// once with the checkpoint runtime off.  Both must give the pinned
/// statistics; the snapshot digest is checked on the first.
struct Row {
    Engine engine;
    bool snapshots;
};
constexpr Row kRows[] = {
    {Engine::Scalar, true},       {Engine::Scalar, false},
    {Engine::Event64, true},      {Engine::Event64, false},
    {Engine::Compiled128, true},  {Engine::Compiled128, false},
};

const char* engine_name(Engine engine) {
    switch (engine) {
        case Engine::Scalar: return "scalar";
        case Engine::Event64: return "event-64";
        case Engine::Compiled128: return "compiled-128";
    }
    return "?";
}

/// Sets the lane width and the backend of one row.
unsigned configure(Engine engine, CampaignRunOptions& run) {
    switch (engine) {
        case Engine::Scalar: run.backend = "event"; return 1;
        case Engine::Event64: run.backend = "event"; return 64;
        case Engine::Compiled128: run.backend = "compiled"; return 128;
    }
    return 0;
}

std::string hex(std::uint64_t word) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(word));
    return buf;
}

std::string bits(double value) {
    return hex(std::bit_cast<std::uint64_t>(value));
}

/// Plain FNV-1a 64 over bytes.
std::uint64_t fnv64(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    std::uint64_t hash = 0xCBF29CE484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

/// A fresh snapshot path per (kind, engine), or none for a row without
/// snapshots.
std::string snapshot_path(const char* kind, const Row& row) {
    if (!row.snapshots) return "";
    const std::string path = ::testing::TempDir() + "glitchmask_golden_" +
                             kind + "_" + engine_name(row.engine) + ".gmsnap";
    std::remove(path.c_str());
    return path;
}

std::string trace_label(const Row& row) {
    return std::string(engine_name(row.engine)) +
           (row.snapshots ? " with snapshots" : " without snapshots");
}

std::string snapshot_digest(const std::string& path) {
    if (path.empty()) return "none";
    const auto bytes = read_file_if_exists(path);
    std::remove(path.c_str());
    if (!bytes) return "missing";
    return hex(fnv64(bytes->data(), bytes->size()));
}

void checkpoint_every_block(CampaignRunOptions& run, const std::string& path) {
    run.checkpoint_path = path;
    run.checkpoint_every = 1;
}

TEST(CampaignGolden, SequenceTvla) {
    const core::InputSequence sequence{core::ShareId::X0, core::ShareId::Y0,
                                       core::ShareId::X1, core::ShareId::Y1};
    const std::string snapshot = "6dc1c81e6ba162c6";
    for (const Row& row : kRows) {
        SCOPED_TRACE(trace_label(row));
        SequenceExperimentConfig config;
        config.replicas = 4;
        config.traces = 200;  // 3 full 64-trace blocks and an 8-trace tail
        config.noise_sigma = 0.5;
        config.seed = 77;
        config.workers = 2;
        config.lanes = configure(row.engine, config.run);
        const std::string path = snapshot_path("sequence", row);
        checkpoint_every_block(config.run, path);

        const SequenceLeakResult r = run_sequence_experiment(sequence, config);
        EXPECT_EQ(bits(r.max_abs_t1), "3ff68276c509e34b");
        EXPECT_EQ(r.argmax_cycle, 5u);
        EXPECT_EQ(bits(r.max_abs_t2), "4019a768ce3e7dfc");
        EXPECT_EQ(r.completed_traces, 200u);
        if (row.snapshots) {
            EXPECT_EQ(snapshot_digest(path), snapshot);
        }
    }
}

TEST(CampaignGolden, GadgetTrichinaWithAttribution) {
    const std::string snapshot = "c85d49708cdc43d2";
    for (const Row& row : kRows) {
        SCOPED_TRACE(trace_label(row));
        GadgetTvlaConfig config;
        config.gadget = GadgetKind::Trichina;
        config.replicas = 4;
        config.traces = 400;      // blocks of 160, 160 and 80 traces, so
        config.block_size = 160;  // compiled-128 runs full and short groups
        config.seed = 5;
        config.workers = 2;
        config.lanes = configure(row.engine, config.run);
        config.run.attribution = true;
        const std::string path = snapshot_path("gadget", row);
        checkpoint_every_block(config.run, path);

        const GadgetTvlaResult r = run_gadget_tvla(config);
        EXPECT_EQ(bits(r.max_abs_t1), "3ff500ce6fafc61f");
        EXPECT_EQ(r.argmax_cycle, 0u);
        EXPECT_EQ(bits(r.max_abs_t2), "401c4b298bbc13b5");
        ASSERT_GE(r.attribution.ranked.size(), 3u);
        const std::string top3[][2] = {
            {"g1/c2", "4007dd7d67a58e20"},
            {"g2/c2", "4007dd7d67a58e20"},
            {"g0/c2", "4006645016d719cc"},
        };
        for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_EQ(r.attribution.ranked[i].name, top3[i][0]) << "rank " << i;
            EXPECT_EQ(bits(r.attribution.ranked[i].max_abs_t), top3[i][1])
                << "rank " << i;
        }
        if (row.snapshots) {
            EXPECT_EQ(snapshot_digest(path), snapshot);
        }
    }
}

TEST(CampaignGolden, DesTvla) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string snapshot = "12de2af1c7ffb56f";
    for (const Row& row : kRows) {
        SCOPED_TRACE(trace_label(row));
        DesTvlaConfig config;
        config.traces = 100;      // one 96-trace block (a full 64 group
        config.block_size = 96;   // and a 32-lane group) and a 4-trace tail
        config.seed = 13;
        config.workers = 2;
        config.lanes = configure(row.engine, config.run);
        const std::string path = snapshot_path("des", row);
        checkpoint_every_block(config.run, path);

        const DesTvlaResult r = run_des_tvla(core, config);
        const std::string t[] = {"", "40090adcea4268c7", "4004ce41a4fd9efe",
                                 "3ff5c74ed26c8176"};
        for (int order = 1; order <= 3; ++order)
            EXPECT_EQ(bits(r.max_abs_t[order]), t[order]) << "order " << order;
        EXPECT_EQ(r.toggles, 14686308u);
        EXPECT_EQ(r.completed_traces, 100u);
        if (row.snapshots) {
            EXPECT_EQ(snapshot_digest(path), snapshot);
        }
    }
}

TEST(CampaignGolden, MeanPower) {
    const des::MaskedDesCore core(des::MaskedDesOptions{});
    const std::string snapshot = "bd9a6c1f1e2d2325";
    for (const Row& row : kRows) {
        SCOPED_TRACE(trace_label(row));
        CampaignRunOptions run;
        const unsigned lanes = configure(row.engine, run);
        const std::string path = snapshot_path("mean_power", row);
        checkpoint_every_block(run, path);

        CampaignProgress progress;
        const std::vector<double> mean = mean_power_trace(
            core, /*traces=*/80, /*seed=*/17, /*placement_seed=*/1,
            /*workers=*/2, lanes, run, &progress);
        EXPECT_EQ(mean.size(), 113u);
        EXPECT_EQ(hex(fnv64(mean.data(), mean.size() * sizeof(double))),
                  "4863c6cf704444f2");
        EXPECT_EQ(progress.completed_traces, 80u);
        if (row.snapshots) {
            EXPECT_EQ(snapshot_digest(path), snapshot);
        }
    }
}

}  // namespace
}  // namespace glitchmask::eval

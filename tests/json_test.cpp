// Byte-golden pins for the JSON the project writes where the exact bytes
// matter:
//
//   * ledger lines -- the CRC covers the entry bytes and sort_ledger
//     breaks timestamp ties on them, so a layout change silently
//     invalidates every existing ledger;
//   * every protocol event encoder -- clients (examples/campaign_client,
//     chaos_smoke.sh) match event lines by substring;
//   * encode_request -- the drain state file and submit lines.
//
// Round-trip tests cannot see a change that alters encoder and decoder
// consistently; these constants can.  They were captured once and must
// not be edited: a failure here means the wire or ledger format moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/ledger.hpp"
#include "service/campaign_request.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace glitchmask;
using namespace glitchmask::service;

/// One entry exercising every value class the ledger writes: a u64 at
/// and past 2^63, NaN and infinite metrics (flattened to 0), negative
/// doubles, a 0.1 that needs all 17 digits, and strings with a quote, a
/// backslash, a tab and a raw control character.
obs::LedgerEntry golden_entry() {
    obs::LedgerEntry entry;
    entry.source = "run_report";
    entry.campaign = "des \"ff\"\\seq\x01\tend";
    entry.fingerprint.kind = 9223372036854775808ull;  // 2^63
    entry.fingerprint.seed = 18446744073709551615ull;  // 2^64 - 1
    entry.fingerprint.traces = 4096;
    entry.fingerprint.block_size = 64;
    entry.fingerprint.payload = 0x0123456789ABCDEFull;
    entry.revision = "abc1234";
    entry.host = "bench-host";
    entry.utc = "2026-01-02T03:04:05Z";
    entry.status = "completed";
    entry.backend = "compiled";
    entry.workers = 4;
    entry.lanes = 128;
    entry.wall_seconds = 1.25;
    entry.cpu_seconds = 0.1;
    entry.max_abs_t1 = -3.5;
    entry.toggles = 9223372036854775809ull;
    entry.attribution.push_back(obs::LedgerNet{7, "n\"7\\", -0.3, 5, 2});
    entry.phases.push_back(obs::LedgerPhase{"sim", 0.5, 0.25});
    entry.metrics = {
        {"nan_metric", std::numeric_limits<double>::quiet_NaN()},
        {"inf_metric", std::numeric_limits<double>::infinity()},
        {"negative", -1e-7},
        {"max_abs_t_order2", 12.000000000000002},
    };
    return entry;
}

TEST(JsonGolden, LedgerLine) {
    EXPECT_EQ(obs::render_ledger_line(golden_entry()),
              R"json({"crc32":1405449615,"entry":{"schema":"glitchmask.ledger","version":1,"source":"run_report","campaign":"des \"ff\"\\seq\u0001\tend","fingerprint":{"kind":9223372036854775808,"seed":18446744073709551615,"traces":4096,"block_size":64,"payload":81985529216486895},"revision":"abc1234","host":"bench-host","utc":"2026-01-02T03:04:05Z","status":"completed","backend":"compiled","workers":4,"lanes":128,"wall_seconds":1.25,"cpu_seconds":0.10000000000000001,"max_abs_t1":-3.5,"toggles":9223372036854775809,"attribution":[{"net":7,"name":"n\"7\\","max_abs_t":-0.29999999999999999,"toggles":5,"glitches":2}],"phases":[{"name":"sim","cpu_seconds":0.5,"wall_seconds":0.25}],"metrics":{"nan_metric":0,"inf_metric":0,"negative":-9.9999999999999995e-08,"max_abs_t_order2":12.000000000000002}}})json"
              "\n");
}

CampaignOutcome golden_outcome() {
    CampaignOutcome outcome;
    outcome.fingerprint.kind = 1;
    outcome.fingerprint.seed = 18446744073709551615ull;
    outcome.fingerprint.traces = 512;
    outcome.fingerprint.block_size = 64;
    outcome.fingerprint.payload = 0xFEDCBA9876543210ull;
    outcome.total_traces = 512;
    outcome.completed_traces = 448;
    outcome.cancelled = true;
    outcome.resumed = true;
    outcome.checkpoint_degraded = false;
    outcome.snapshot_discarded = true;
    outcome.metrics = {{"max_abs_t_order1", 4.5000000000000009},
                       {"max_abs_t_order2", -0.25},
                       {"leaks_first_order", 1.0}};
    return outcome;
}

TEST(JsonGolden, ProtocolEvents) {
    EXPECT_EQ(encode_accepted(42, "00ff\"x"),
              R"json({"event":"accepted","job":42,"fingerprint":"00ff\"x"})json"
              "\n");
    EXPECT_EQ(encode_overloaded(),
              R"json({"event":"overloaded"})json"
              "\n");
    EXPECT_EQ(encode_rejected("bad \"quoted\"\\ reason\n\x1f"),
              R"json({"event":"rejected","reason":"bad \"quoted\"\\ reason\n\u001f"})json"
              "\n");

    telemetry::ProgressUpdate update;
    update.campaign = "gadget_trichina";
    update.completed_traces = 100;
    update.total_traces = 400;
    update.traces_per_sec = 12.5;
    update.eta_sec = 24.000000000000004;
    EXPECT_EQ(encode_progress(9, update),
              R"json({"event":"progress","job":9,"completed":100,"total":400,"traces_per_sec":12.5,"eta_sec":24.000000000000004})json"
              "\n");

    JobStatus done;
    done.id = 17;
    done.state = JobState::Cancelled;
    done.request.kind = CampaignKind::DesTvla;
    done.outcome = golden_outcome();
    done.cached = false;
    done.coalesced = true;
    done.spans = {{"queue_wait", 1, 2500},
                  {"execute", 1, 18446744073709551615ull}};
    EXPECT_EQ(encode_result(done),
              R"json({"event":"result","job":17,"state":"cancelled","kind":"des_tvla","cached":false,"coalesced":true,"fingerprint":"0000000000000001ffffffffffffffff00000000000002000000000000000040fedcba9876543210","total_traces":512,"completed_traces":448,"cancelled":true,"resumed":true,"checkpoint_degraded":false,"snapshot_discarded":true,"metrics":{"max_abs_t_order1":4.5000000000000009,"max_abs_t_order2":-0.25,"leaks_first_order":1},"spans":[{"name":"queue_wait","count":1,"total_ns":2500},{"name":"execute","count":1,"total_ns":18446744073709551615}]})json"
              "\n");

    JobStatus failed;
    failed.id = 18;
    failed.state = JobState::Failed;
    failed.request.kind = CampaignKind::MeanPower;
    failed.error_kind = "io_failure";
    failed.error_message = "disk \"full\"\n";
    EXPECT_EQ(encode_status(failed),
              R"json({"event":"status","job":18,"state":"failed","kind":"mean_power","cached":false,"coalesced":false,"error_kind":"io_failure","error_message":"disk \"full\"\n"})json"
              "\n");

    JobStatus running;
    running.id = 19;
    running.state = JobState::Running;
    running.request.kind = CampaignKind::SequenceTvla;
    running.cached = true;
    EXPECT_EQ(encode_status(running),
              R"json({"event":"status","job":19,"state":"running","kind":"sequence_tvla","cached":true,"coalesced":false})json"
              "\n");

    CampaignService::Stats stats;
    stats.submitted = 11;
    stats.executed = 7;
    stats.completed = 6;
    stats.cache_hits = 3;
    stats.cache_misses = 8;
    stats.coalesced = 1;
    stats.rejected_overloaded = 2;
    stats.failed = 1;
    stats.cancelled = 4;
    stats.timed_out = 5;
    stats.queued_now = 9;
    stats.running_now = 1;
    stats.queue_peak = 12;
    EXPECT_EQ(encode_stats(stats),
              R"json({"event":"stats","submitted":11,"executed":7,"completed":6,"cache_hits":3,"cache_misses":8,"coalesced":1,"rejected_overloaded":2,"failed":1,"cancelled":4,"timed_out":5,"queued_now":9,"running_now":1,"queue_peak":12})json"
              "\n");

    telemetry::Snapshot snapshot;
    snapshot.values[static_cast<std::size_t>(telemetry::Counter::kSimToggles)] =
        18446744073709551615ull;
    telemetry::HistogramSnapshot& wait = snapshot.histograms[static_cast<
        std::size_t>(telemetry::Histogram::kQueueWaitNanos)];
    wait.buckets[3] = 2;
    wait.buckets[10] = 1;
    wait.count = 3;
    wait.sum = 1040;
    wait.max = 1030;
    snapshot.gauges[static_cast<std::size_t>(
        telemetry::Gauge::kServiceQueueDepth)] = 5;
    CampaignService::MetricsInfo info;
    info.stats = stats;
    info.cache_entries = 3;
    info.cache_hit_rate = 0.1;
    info.spool_bytes = 9223372036854775808ull;
    EXPECT_EQ(encode_metrics(snapshot, info),
              R"json({"event":"metrics","counters":{"sim.toggles":18446744073709551615},"histograms":{"service.queue_wait_nanos":{"count":3,"sum":1040,"max":1030,"buckets":[[4,2],[512,1]]}},"gauges":{"service.queue_depth":5,"service.running_jobs":0,"service.cache_entries":0,"service.spool_bytes":0},"service":{"queue_depth":9,"running":1,"queue_peak":12,"cache_entries":3,"cache_hit_rate":0.10000000000000001,"spool_bytes":9223372036854775808}})json"
              "\n");

    EXPECT_EQ(encode_history("ab12", {golden_entry()}),
              R"json({"event":"history","fingerprint":"ab12","entries":[{"source":"run_report","campaign":"des \"ff\"\\seq\u0001\tend","status":"completed","revision":"abc1234","host":"bench-host","utc":"2026-01-02T03:04:05Z","wall_seconds":1.25,"max_abs_t1":-3.5,"toggles":9223372036854775809}]})json"
              "\n");
    EXPECT_EQ(encode_history("", {}),
              R"json({"event":"history","fingerprint":"","entries":[]})json"
              "\n");
    EXPECT_EQ(encode_shutting_down(),
              R"json({"event":"shutting_down"})json"
              "\n");
}

/// Every field set explicitly (not from driver defaults), so a change of
/// a driver default does not move these bytes.
CampaignRequest golden_request(CampaignKind kind) {
    CampaignRequest request;
    request.kind = kind;
    request.priority = -3;
    request.traces = 300000;
    request.noise_sigma = 0.1;
    request.seed = 18446744073709551615ull;
    request.placement_seed = 9223372036854775808ull;
    request.max_test_order = 3;
    request.block_size = 512;
    request.lanes = 256;
    request.workers = 4;
    request.sequence = {core::ShareId::Y1, core::ShareId::X0,
                        core::ShareId::Y0, core::ShareId::X1};
    request.replicas = 8;
    request.gadget = eval::GadgetKind::DomIndep;
    request.flavor = des::CoreFlavor::PD;
    request.prng_on = false;
    request.fixed_plaintext = 0xDA39A3EE5E6B4B0Dull;
    request.key = 0x133457799BBCDFF1ull;
    return request;
}

TEST(JsonGolden, EncodeRequestPerKind) {
    EXPECT_EQ(encode_request(golden_request(CampaignKind::SequenceTvla)),
              R"json({"kind":"sequence_tvla","priority":-3,"traces":300000,"noise_sigma":0.10000000000000001,"seed":18446744073709551615,"placement_seed":9223372036854775808,"max_test_order":3,"block_size":512,"lanes":256,"workers":4,"sequence":"3021","replicas":8})json");
    EXPECT_EQ(encode_request(golden_request(CampaignKind::GadgetTvla)),
              R"json({"kind":"gadget_tvla","priority":-3,"traces":300000,"noise_sigma":0.10000000000000001,"seed":18446744073709551615,"placement_seed":9223372036854775808,"max_test_order":3,"block_size":512,"lanes":256,"workers":4,"gadget":"dom-indep","replicas":8})json");
    EXPECT_EQ(encode_request(golden_request(CampaignKind::DesTvla)),
              R"json({"kind":"des_tvla","priority":-3,"traces":300000,"noise_sigma":0.10000000000000001,"seed":18446744073709551615,"placement_seed":9223372036854775808,"max_test_order":3,"block_size":512,"lanes":256,"workers":4,"flavor":"pd","prng_on":false,"fixed_plaintext":15724779818122431245,"key":1383827165325090801})json");
    EXPECT_EQ(encode_request(golden_request(CampaignKind::MeanPower)),
              R"json({"kind":"mean_power","priority":-3,"traces":300000,"noise_sigma":0.10000000000000001,"seed":18446744073709551615,"placement_seed":9223372036854775808,"max_test_order":3,"block_size":512,"lanes":256,"workers":4,"flavor":"pd"})json");
}

}  // namespace

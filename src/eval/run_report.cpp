#include "eval/run_report.hpp"

#include <chrono>
#include <stdexcept>

#include "leakage/attribution.hpp"
#include "support/atomic_file.hpp"
#include "support/campaign_error.hpp"
#include "support/env.hpp"
#include "support/runenv.hpp"

namespace glitchmask::eval {

namespace {

std::int64_t steady_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

std::string resolve_report_path(const CampaignRunOptions& run,
                                const std::string& default_id) {
    if (!run.report_path.empty()) return run.report_path;
    const std::string dir = env_string("GLITCHMASK_REPORT_DIR", "");
    if (dir.empty()) return {};
    const std::string id =
        run.campaign_id.empty() ? default_id : run.campaign_id;
    return dir + "/" + id + ".report.json";
}

std::string resolve_trace_path(const CampaignRunOptions& run,
                               const std::string& default_id) {
    const std::string dir = env_string("GLITCHMASK_TRACE_DIR", "");
    if (dir.empty()) return {};
    const std::string id =
        run.campaign_id.empty() ? default_id : run.campaign_id;
    return dir + "/" + id + ".trace.json";
}

void write_histograms(json::JsonWriter& w,
                      const telemetry::Snapshot& snapshot) {
    w.key("histograms");
    w.begin_object();
    for (std::size_t i = 0; i < telemetry::kHistogramCount; ++i) {
        const telemetry::HistogramSnapshot& h = snapshot.histograms[i];
        if (h.count == 0) continue;
        w.key(telemetry::histogram_name(static_cast<telemetry::Histogram>(i)));
        w.begin_object();
        w.member("count", h.count);
        w.member("sum", h.sum);
        w.member("max", h.max);
        w.key("buckets");
        w.begin_array();
        for (std::size_t b = 0; b < telemetry::kHistogramBuckets; ++b) {
            if (h.buckets[b] == 0) continue;
            w.begin_array();
            w.value(telemetry::histogram_bucket_floor(b));
            w.value(h.buckets[b]);
            w.end_array();
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
}

void write_spans(json::JsonWriter& w,
                 const std::vector<trace::SpanSummary>& spans) {
    w.key("spans");
    w.begin_array();
    for (const trace::SpanSummary& span : spans) {
        w.begin_object();
        w.member("name", span.name);
        w.member("count", span.count);
        w.member("total_ns", span.total_ns);
        w.end_object();
    }
    w.end_array();
}

std::string render_run_report(const RunReport& report) {
    json::JsonWriter w;
    w.begin_object();
    w.member("schema", kRunReportSchema);
    w.member("version", static_cast<std::uint64_t>(kRunReportVersion));
    w.member("campaign", report.campaign);
    w.key("fingerprint");
    w.begin_object();
    w.member("kind", report.fingerprint.kind);
    w.member("seed", report.fingerprint.seed);
    w.member("traces", report.fingerprint.traces);
    w.member("block_size", report.fingerprint.block_size);
    w.member("payload", report.fingerprint.payload);
    w.end_object();
    w.member("workers", static_cast<std::uint64_t>(report.workers));
    w.member("lanes", static_cast<std::uint64_t>(report.lanes));
    w.member("revision", report.revision);
    w.member("hostname", report.hostname);
    w.member("utc", report.utc);
    w.member("wall_seconds", report.wall_seconds);
    w.member("cpu_seconds", report.cpu_seconds);
    w.member("telemetry_enabled", report.telemetry_enabled);
    w.key("counters");
    w.begin_object();
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i)
        w.member(telemetry::counter_name(static_cast<telemetry::Counter>(i)),
                 report.counters.values[i]);
    w.end_object();
    write_histograms(w, report.counters);  // v3
    w.key("progress");
    w.begin_object();
    w.member("completed_blocks",
             static_cast<std::uint64_t>(report.progress.completed_blocks));
    w.member("completed_traces",
             static_cast<std::uint64_t>(report.progress.completed_traces));
    w.member("resumed", report.progress.resumed);
    w.member("cancelled", report.progress.cancelled);
    w.end_object();
    w.key("checkpoint_blocks");
    w.begin_array();
    for (const std::uint64_t mark : report.checkpoint_blocks) w.value(mark);
    w.end_array();
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, value] : report.metrics) w.member(name, value);
    w.end_object();
    if (report.attribution.enabled) {
        const AttributionReport& attr = report.attribution;
        w.key("attribution");
        w.begin_object();
        w.member("top_k", attr.top_k);
        w.member("scope", attr.scope);
        w.member("traces_fixed", attr.traces_fixed);
        w.member("traces_random", attr.traces_random);
        w.key("nets");
        w.begin_array();
        for (const AttributionNetReport& net : attr.nets) {
            w.begin_object();
            w.member("net", net.net);
            w.member("name", net.name);
            w.member("kind", net.kind);
            w.member("module", net.module);
            w.member("max_abs_t", net.max_abs_t);
            w.member("argmax_window", net.argmax_window);
            w.member("snr", net.snr);
            w.member("toggles", net.toggles);
            w.member("glitches", net.glitches);
            w.member("glitch_density", net.glitch_density);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    if (!report.spans.empty()) write_spans(w, report.spans);
    w.end_object();
    return w.take() + '\n';
}

void write_run_report(const std::string& path, const RunReport& report) {
    atomic_write_file(path, render_run_report(report));
}

std::optional<RunReport> read_run_report(const std::string& path) {
    const auto bytes = read_file_if_exists(path);
    if (!bytes.has_value()) return std::nullopt;
    const JsonValue root = parse_json(std::string_view(
        reinterpret_cast<const char*>(bytes->data()), bytes->size()));
    return decode_run_report(root);
}

RunReport decode_run_report(const JsonValue& root) {
    if (root.kind != JsonValue::Kind::kObject)
        throw std::runtime_error("run report: not a JSON object");
    const auto field = [](const JsonValue& object, std::string_view key) {
        return json::require(object, key, "run report");
    };
    const std::string& schema = field(root, "schema").string();
    if (schema != kRunReportSchema)
        throw std::runtime_error("run report: unexpected schema '" + schema +
                                 "'");
    const std::uint64_t version = field(root, "version").u64();
    if (version < 1 || version > kRunReportVersion)
        throw std::runtime_error("run report: unsupported version " +
                                 std::to_string(version));

    RunReport report;
    report.campaign = field(root, "campaign").string();
    const JsonValue& fp = field(root, "fingerprint").value;
    report.fingerprint.kind = field(fp, "kind").u64();
    report.fingerprint.seed = field(fp, "seed").u64();
    report.fingerprint.traces = field(fp, "traces").u64();
    report.fingerprint.block_size = field(fp, "block_size").u64();
    report.fingerprint.payload = field(fp, "payload").u64();
    report.workers = static_cast<unsigned>(field(root, "workers").u64());
    report.lanes = static_cast<unsigned>(field(root, "lanes").u64());
    // v4 attribution fields; absent in v1-v3 files.
    if (const JsonValue* revision = root.find("revision"))
        report.revision = revision->string;
    if (const JsonValue* hostname = root.find("hostname"))
        report.hostname = hostname->string;
    if (const JsonValue* utc = root.find("utc")) report.utc = utc->string;
    report.wall_seconds = field(root, "wall_seconds").number();
    report.cpu_seconds = field(root, "cpu_seconds").number();
    report.telemetry_enabled = field(root, "telemetry_enabled").boolean();
    const JsonValue& counters = field(root, "counters").value;
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
        const char* name =
            telemetry::counter_name(static_cast<telemetry::Counter>(i));
        if (const JsonValue* value = counters.find(name))
            report.counters.values[i] = value->unsigned_value;
    }
    // v3 section; absent in v1/v2 files and in histogram-free runs.
    if (const JsonValue* histograms = root.find("histograms")) {
        for (std::size_t i = 0; i < telemetry::kHistogramCount; ++i) {
            const char* name = telemetry::histogram_name(
                static_cast<telemetry::Histogram>(i));
            const JsonValue* cell = histograms->find(name);
            if (cell == nullptr) continue;
            telemetry::HistogramSnapshot& h = report.counters.histograms[i];
            h.count = field(*cell, "count").u64();
            h.sum = field(*cell, "sum").u64();
            h.max = field(*cell, "max").u64();
            for (const JsonValue& pair : field(*cell, "buckets").value.array) {
                if (pair.kind != JsonValue::Kind::kArray ||
                    pair.array.size() != 2)
                    throw std::runtime_error(
                        "run report: histogram bucket is not a "
                        "[floor, count] pair");
                const std::size_t bucket = telemetry::histogram_bucket(
                    pair.array[0].unsigned_value);
                h.buckets[bucket] = pair.array[1].unsigned_value;
            }
        }
    }
    const JsonValue& progress = field(root, "progress").value;
    report.progress.completed_blocks =
        static_cast<std::size_t>(field(progress, "completed_blocks").u64());
    report.progress.completed_traces =
        static_cast<std::size_t>(field(progress, "completed_traces").u64());
    report.progress.resumed = field(progress, "resumed").boolean();
    report.progress.cancelled = field(progress, "cancelled").boolean();
    for (const JsonValue& mark : field(root, "checkpoint_blocks").value.array)
        report.checkpoint_blocks.push_back(mark.unsigned_value);
    for (const auto& [name, value] : field(root, "metrics").value.object)
        report.metrics.emplace_back(name, value.as_number());
    // v2 section; absent in v1 files and in unattributed v2 runs.
    if (const JsonValue* attr = root.find("attribution")) {
        report.attribution.enabled = true;
        report.attribution.top_k = field(*attr, "top_k").u64();
        report.attribution.scope = field(*attr, "scope").string();
        report.attribution.traces_fixed = field(*attr, "traces_fixed").u64();
        report.attribution.traces_random = field(*attr, "traces_random").u64();
        for (const JsonValue& entry : field(*attr, "nets").value.array) {
            AttributionNetReport net;
            net.net = field(entry, "net").u64();
            net.name = field(entry, "name").string();
            net.kind = field(entry, "kind").string();
            net.module = field(entry, "module").string();
            net.max_abs_t = field(entry, "max_abs_t").number();
            net.argmax_window = field(entry, "argmax_window").u64();
            net.snr = field(entry, "snr").number();
            net.toggles = field(entry, "toggles").u64();
            net.glitches = field(entry, "glitches").u64();
            net.glitch_density = field(entry, "glitch_density").number();
            report.attribution.nets.push_back(std::move(net));
        }
    }
    // v3 section; absent in v1/v2 files and in untraced runs.
    if (const JsonValue* spans = root.find("spans")) {
        for (const JsonValue& entry : spans->array) {
            trace::SpanSummary span;
            span.name = field(entry, "name").string();
            span.count = field(entry, "count").u64();
            span.total_ns = field(entry, "total_ns").u64();
            report.spans.push_back(std::move(span));
        }
    }
    return report;
}

// ----- RunTelemetrySession -----------------------------------------------

RunTelemetrySession::RunTelemetrySession(std::string campaign_id,
                                         const CampaignRunOptions& run,
                                         const CampaignFingerprint& fingerprint,
                                         std::size_t total_traces,
                                         unsigned workers, unsigned lanes)
    : campaign_(std::move(campaign_id)),
      report_path_(resolve_report_path(run, campaign_)),
      trace_path_(resolve_trace_path(run, campaign_)),
      fingerprint_(fingerprint),
      workers_(workers),
      lanes_(lanes),
      restore_enabled_(telemetry::enabled()),
      restore_trace_(trace::enabled()),
      meter_(campaign_, total_traces, run.on_progress) {
    // A requested report implies collection for this run; drivers without
    // a report keep whatever GLITCHMASK_TELEMETRY selected.  Likewise a
    // requested trace file implies span collection.
    if (!report_path_.empty()) telemetry::set_enabled(true);
    if (!trace_path_.empty()) trace::set_enabled(true);
    start_ = telemetry::snapshot();
    cpu_start_ = telemetry::process_cpu_seconds();
    wall_start_ns_ = steady_ns();
}

RunTelemetrySession::~RunTelemetrySession() {
    telemetry::set_enabled(restore_enabled_);
    trace::set_enabled(restore_trace_);
}

void RunTelemetrySession::attach(CheckpointPolicy& policy) {
    // The runner invokes on_checkpoint from the fold loop on the calling
    // thread, so the history vector needs no lock.
    policy.on_checkpoint = [this, chained = std::move(policy.on_checkpoint)](
                               std::size_t completed_blocks) {
        checkpoint_blocks_.push_back(completed_blocks);
        if (chained) chained(completed_blocks);
    };
}

telemetry::ProgressMeter* RunTelemetrySession::meter() noexcept {
    return meter_.active() ? &meter_ : nullptr;
}

void RunTelemetrySession::add_metric(std::string name, double value) {
    metrics_.emplace_back(std::move(name), value);
}

void RunTelemetrySession::set_attribution(
    const leakage::AttributionResult& result, std::size_t top_k,
    std::string scope) {
    if (!result.enabled) return;
    attribution_.enabled = true;
    attribution_.top_k = top_k;
    attribution_.scope = std::move(scope);
    attribution_.traces_fixed = result.traces_fixed;
    attribution_.traces_random = result.traces_random;
    attribution_.nets.clear();
    const std::size_t rows = std::min(top_k, result.ranked.size());
    for (std::size_t rank = 0; rank < rows; ++rank) {
        const leakage::NetAttribution& from = result.ranked[rank];
        AttributionNetReport net;
        net.net = from.net;
        net.name = from.name;
        net.kind = from.kind;
        net.module = from.module;
        net.max_abs_t = from.max_abs_t;
        net.argmax_window = from.argmax_window;
        net.snr = from.snr;
        net.toggles = from.toggles;
        net.glitches = from.glitches;
        net.glitch_density = from.glitch_density;
        attribution_.nets.push_back(std::move(net));
    }
}

void RunTelemetrySession::finish(const CampaignProgress& progress) {
    if (finished_) return;
    finished_ = true;
    meter_.finish();

    // Only a session that *asked* for a trace file drains the global span
    // buffer -- under the daemon, spans belong to the service's per-job
    // harvest and draining here would steal them.
    std::vector<trace::SpanSummary> span_summary;
    if (!trace_path_.empty()) {
        const std::vector<trace::Span> spans = trace::take_spans();
        trace::write_chrome_trace(trace_path_, spans);
        span_summary = trace::summarize_spans(spans);
    }
    if (report_path_.empty()) return;

    RunReport report;
    report.campaign = campaign_;
    report.fingerprint = fingerprint_;
    report.workers = workers_;
    report.lanes = lanes_;
    report.revision = git_revision();
    report.hostname = host_name();
    report.utc = utc_timestamp();
    report.wall_seconds =
        static_cast<double>(steady_ns() - wall_start_ns_) * 1e-9;
    report.cpu_seconds = telemetry::process_cpu_seconds() - cpu_start_;
    report.telemetry_enabled = true;
    report.counters = telemetry::snapshot().delta_since(start_);
    report.progress = progress;
    report.checkpoint_blocks = checkpoint_blocks_;
    report.metrics = metrics_;
    report.attribution = attribution_;
    report.spans = std::move(span_summary);
    write_run_report(report_path_, report);
}

}  // namespace glitchmask::eval

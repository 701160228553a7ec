#include "service/protocol.hpp"

#include <stdexcept>

#include "support/json.hpp"

namespace glitchmask::service {

namespace {

void encode_outcome_members(json::JsonWriter& w,
                            const CampaignOutcome& outcome) {
    w.member("fingerprint", fingerprint_hex(outcome.fingerprint));
    w.member("total_traces", outcome.total_traces);
    w.member("completed_traces", outcome.completed_traces);
    w.member("cancelled", outcome.cancelled);
    w.member("resumed", outcome.resumed);
    w.member("checkpoint_degraded", outcome.checkpoint_degraded);
    w.member("snapshot_discarded", outcome.snapshot_discarded);
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, value] : outcome.metrics) w.member(name, value);
    w.end_object();
}

/// The members of a result/status event, as an event_line body.
auto job_members(const JobStatus& status) {
    return [&status](json::JsonWriter& w) {
        w.member("job", status.id);
        w.member("state", job_state_name(status.state));
        w.member("kind", campaign_kind_name(status.request.kind));
        w.member("cached", status.cached);
        w.member("coalesced", status.coalesced);
        if (status.state == JobState::Failed) {
            w.member("error_kind", status.error_kind);
            w.member("error_message", status.error_message);
        } else if (job_state_terminal(status.state)) {
            encode_outcome_members(w, status.outcome);
        }
        if (job_state_terminal(status.state) && !status.spans.empty())
            eval::write_spans(w, status.spans);
    };
}

/// One event line: {"event":<name>, ...members written by `body`}\n.
template <class Body>
std::string event_line(const char* name, Body&& body) {
    json::JsonWriter w;
    w.begin_object();
    w.member("event", name);
    body(w);
    w.end_object();
    return w.take() + '\n';
}

}  // namespace

ClientCommand parse_client_command(const std::string& line) {
    json::JsonValue document;
    try {
        document = json::parse_json(line);
    } catch (const json::ParseError& error) {
        throw std::runtime_error(std::string("malformed JSON: ") +
                                 error.what());
    }
    if (document.kind != json::JsonValue::Kind::kObject)
        throw std::runtime_error("request must be a JSON object");
    const auto field = [&](std::string_view key) {
        return json::require(document, key, "request");
    };
    const std::string& op = field("op").string();

    ClientCommand command;
    if (op == "submit") {
        command.op = ClientCommand::Op::Submit;
        command.request = decode_request(document);
    } else if (op == "status" || op == "cancel") {
        command.op = op == "status" ? ClientCommand::Op::Status
                                    : ClientCommand::Op::Cancel;
        command.job_id = field("job").u64();
    } else if (op == "stats") {
        command.op = ClientCommand::Op::Stats;
    } else if (op == "metrics") {
        command.op = ClientCommand::Op::Metrics;
    } else if (op == "history") {
        command.op = ClientCommand::Op::History;
        const json::Member fingerprint = field("fingerprint");
        command.fingerprint = fingerprint.string();
        if (command.fingerprint.empty()) fingerprint.fail("must not be empty");
    } else if (op == "shutdown") {
        command.op = ClientCommand::Op::Shutdown;
        if (const json::JsonValue* drain = document.find("drain");
            drain != nullptr && drain->kind == json::JsonValue::Kind::kBool)
            command.drain = drain->boolean;
    } else {
        throw std::runtime_error("unknown op '" + op + "'");
    }
    return command;
}

std::string encode_accepted(std::uint64_t job_id,
                            const std::string& fingerprint_hex) {
    return event_line("accepted", [&](json::JsonWriter& w) {
        w.member("job", job_id);
        w.member("fingerprint", fingerprint_hex);
    });
}

std::string encode_overloaded() {
    return event_line("overloaded", [](json::JsonWriter&) {});
}

std::string encode_rejected(const std::string& reason) {
    return event_line("rejected", [&](json::JsonWriter& w) {
        w.member("reason", reason);
    });
}

std::string encode_progress(std::uint64_t job_id,
                            const telemetry::ProgressUpdate& update) {
    return event_line("progress", [&](json::JsonWriter& w) {
        w.member("job", job_id);
        w.member("completed", update.completed_traces);
        w.member("total", update.total_traces);
        w.member("traces_per_sec", update.traces_per_sec);
        w.member("eta_sec", update.eta_sec);
    });
}

std::string encode_result(const JobStatus& status) {
    return event_line("result", job_members(status));
}

std::string encode_status(const JobStatus& status) {
    return event_line("status", job_members(status));
}

std::string encode_stats(const CampaignService::Stats& stats) {
    return event_line("stats", [&](json::JsonWriter& w) {
        w.member("submitted", stats.submitted);
        w.member("executed", stats.executed);
        w.member("completed", stats.completed);
        w.member("cache_hits", stats.cache_hits);
        w.member("cache_misses", stats.cache_misses);
        w.member("coalesced", stats.coalesced);
        w.member("rejected_overloaded", stats.rejected_overloaded);
        w.member("failed", stats.failed);
        w.member("cancelled", stats.cancelled);
        w.member("timed_out", stats.timed_out);
        w.member("queued_now", stats.queued_now);
        w.member("running_now", stats.running_now);
        w.member("queue_peak", stats.queue_peak);
    });
}

std::string encode_metrics(const telemetry::Snapshot& snapshot,
                           const CampaignService::MetricsInfo& info) {
    return event_line("metrics", [&](json::JsonWriter& w) {
        w.key("counters");
        w.begin_object();
        for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
            if (snapshot.values[i] == 0) continue;
            w.member(telemetry::counter_name(
                         static_cast<telemetry::Counter>(i)),
                     snapshot.values[i]);
        }
        w.end_object();

        eval::write_histograms(w, snapshot);

        w.key("gauges");
        w.begin_object();
        for (std::size_t i = 0; i < telemetry::kGaugeCount; ++i) {
            w.member(telemetry::gauge_name(static_cast<telemetry::Gauge>(i)),
                     snapshot.gauges[i]);
        }
        w.end_object();

        w.key("service");
        w.begin_object();
        w.member("queue_depth", info.stats.queued_now);
        w.member("running", info.stats.running_now);
        w.member("queue_peak", info.stats.queue_peak);
        w.member("cache_entries", info.cache_entries);
        w.member("cache_hit_rate", info.cache_hit_rate);
        w.member("spool_bytes", info.spool_bytes);
        w.end_object();
    });
}

std::string encode_history(const std::string& fingerprint_hex,
                           const std::vector<obs::LedgerEntry>& entries) {
    return event_line("history", [&](json::JsonWriter& w) {
        w.member("fingerprint", fingerprint_hex);
        w.key("entries");
        w.begin_array();
        for (const obs::LedgerEntry& entry : entries) {
            w.begin_object();
            w.member("source", entry.source);
            w.member("campaign", entry.campaign);
            w.member("status", entry.status);
            w.member("revision", entry.revision);
            w.member("host", entry.host);
            w.member("utc", entry.utc);
            w.member("wall_seconds", entry.wall_seconds);
            w.member("max_abs_t1", entry.max_abs_t1);
            w.member("toggles", entry.toggles);
            w.end_object();
        }
        w.end_array();
    });
}

std::string encode_shutting_down() {
    return event_line("shutting_down", [](json::JsonWriter&) {});
}

}  // namespace glitchmask::service

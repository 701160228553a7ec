// glitchmaskd: the campaign service daemon.
//
// Accepts CampaignRequests over a local Unix socket (newline-delimited
// JSON, see service/protocol.hpp), schedules them on a bounded executor
// pool with priorities and an explicit-overload admission policy, streams
// progress back, dedupes identical campaigns through the fingerprint
// cache, and survives the unglamorous parts: full disks degrade to
// in-memory progress, corrupt spool snapshots are quarantined, wedged
// jobs are cancelled by the watchdog with a resumable checkpoint, SIGTERM
// drains to a state file a restarted daemon picks up.
//
//   glitchmaskd --socket /tmp/gm.sock --spool /var/tmp/gm-spool
//               --state /var/tmp/gm-spool/state.json --executors 1 &
//   printf '{"op":"submit","kind":"gadget_tvla","gadget":"trichina",
//           "traces":2000}\n' | nc -U /tmp/gm.sock
//
// --faults installs a deterministic fault plan (support/fault.hpp) for
// chaos testing; GLITCHMASK_FAULTS does the same from the environment.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/ledger.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/socket_server.hpp"
#include "support/atomic_file.hpp"
#include "support/cancel.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace {

using namespace glitchmask;
using namespace glitchmask::service;

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [options]\n"
        "  --socket PATH     Unix socket to serve on (required)\n"
        "  --spool DIR       checkpoint spool directory (resumable jobs)\n"
        "  --state PATH      drain state file (resubmitted on restart)\n"
        "  --executors N     concurrent campaign runs (default 1)\n"
        "  --queue N         admission queue capacity (default 16)\n"
        "  --cache N         result cache entries (default 64)\n"
        "  --history N       terminal jobs kept queryable (default 256,\n"
        "                    0 = unbounded)\n"
        "  --watchdog SEC    cancel jobs with no progress for SEC seconds\n"
        "  --trace-dir DIR   enable span tracing; write one Chrome-trace\n"
        "                    JSON per terminal job (job-<id>.trace.json)\n"
        "  --metrics-file P  enable telemetry; atomically refresh a\n"
        "                    Prometheus-text exposition file while serving\n"
        "  --ledger PATH     append every executed terminal job to the\n"
        "                    CRC-guarded NDJSON results ledger and serve\n"
        "                    the 'history' verb from it\n"
        "  --faults SPEC     install a deterministic fault plan\n",
        argv0);
}

/// Renders the full registry (counters + histograms + gauges) as
/// Prometheus text and atomically replaces `path`; scrape-safe at any
/// moment.  Failures are logged, never fatal -- metrics must not take the
/// daemon down.
void refresh_metrics_file(const std::string& path,
                          CampaignService& campaign_service) {
    (void)campaign_service.metrics_info();  // refreshes the service gauges
    try {
        atomic_write_file(path, telemetry::render_prometheus_text(
                                    telemetry::snapshot()));
    } catch (const std::exception& error) {
        log::warn(std::string("glitchmaskd: cannot write metrics file: ") +
                  error.what());
    }
}

}  // namespace

int main(int argc, char** argv) {
    ServiceConfig service_config;
    SocketServerConfig socket_config;
    std::string faults;
    std::string metrics_file;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--socket") {
            socket_config.socket_path = next();
        } else if (arg == "--spool") {
            service_config.spool_dir = next();
        } else if (arg == "--state") {
            service_config.state_path = next();
        } else if (arg == "--executors") {
            service_config.executors =
                static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--queue") {
            service_config.queue_capacity =
                static_cast<std::size_t>(std::atol(next()));
        } else if (arg == "--cache") {
            service_config.cache_capacity =
                static_cast<std::size_t>(std::atol(next()));
        } else if (arg == "--history") {
            service_config.history_capacity =
                static_cast<std::size_t>(std::atol(next()));
        } else if (arg == "--watchdog") {
            service_config.watchdog_timeout_sec = std::atof(next());
        } else if (arg == "--trace-dir") {
            service_config.trace_dir = next();
        } else if (arg == "--metrics-file") {
            metrics_file = next();
        } else if (arg == "--ledger") {
            service_config.ledger_path = next();
        } else if (arg == "--faults") {
            faults = next();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (socket_config.socket_path.empty()) {
        usage(argv[0]);
        return 2;
    }

    try {
        fault::install_from_env();
        if (!faults.empty()) fault::install(fault::parse_fault_plan(faults));
    } catch (const std::exception& error) {
        std::fprintf(stderr, "glitchmaskd: bad fault plan: %s\n",
                     error.what());
        return 2;
    }

    // Observability opt-ins: a trace directory turns span collection on,
    // a metrics file turns telemetry collection on (both are otherwise
    // zero-cost-off, same as their env-var gates).
    if (!service_config.trace_dir.empty()) trace::set_enabled(true);
    if (!metrics_file.empty()) telemetry::set_enabled(true);

    CampaignService campaign_service(service_config);
    SocketServer server(socket_config);

    // Route job events back to the submitting connection.  A vanished
    // client is not a cancellation: the mapping goes stale, the job runs
    // on, and the result stays queryable (and cached) by a reconnect.
    std::mutex route_mutex;
    std::unordered_map<std::uint64_t, SocketServer::ClientId> job_client;

    campaign_service.set_progress_hook(
        [&](std::uint64_t job_id, const telemetry::ProgressUpdate& update) {
            SocketServer::ClientId client = 0;
            {
                std::lock_guard<std::mutex> lock(route_mutex);
                const auto it = job_client.find(job_id);
                if (it == job_client.end()) return;
                client = it->second;
            }
            (void)server.send(client, encode_progress(job_id, update),
                              /*droppable=*/true);
        });
    campaign_service.set_completion_hook([&](const JobStatus& status) {
        SocketServer::ClientId client = 0;
        {
            std::lock_guard<std::mutex> lock(route_mutex);
            const auto it = job_client.find(status.id);
            if (it == job_client.end()) return;
            client = it->second;
            job_client.erase(it);
        }
        (void)server.send(client, encode_result(status), /*droppable=*/false);
    });

    bool draining = false;
    server.set_line_handler([&](SocketServer::ClientId client,
                                const std::string& line) {
        ClientCommand command;
        try {
            command = parse_client_command(line);
        } catch (const std::exception& error) {
            (void)server.send(client, encode_rejected(error.what()),
                              /*droppable=*/false);
            return;
        }
        switch (command.op) {
            case ClientCommand::Op::Submit: {
                if (draining) {
                    (void)server.send(client, encode_rejected("draining"),
                                      false);
                    return;
                }
                const auto result = campaign_service.submit(*command.request);
                if (result.kind ==
                    CampaignService::SubmitResult::Kind::Overloaded) {
                    (void)server.send(client, encode_overloaded(), false);
                    return;
                }
                if (result.kind ==
                    CampaignService::SubmitResult::Kind::Draining) {
                    (void)server.send(client, encode_rejected("draining"),
                                      false);
                    return;
                }
                {
                    std::lock_guard<std::mutex> lock(route_mutex);
                    job_client[result.job_id] = client;
                }
                const auto status = campaign_service.status(result.job_id);
                // The request fingerprint is the job's identity from submit
                // time on (outcome.fingerprint only exists once a campaign
                // has run).
                (void)server.send(
                    client,
                    encode_accepted(result.job_id,
                                    status ? status->fingerprint_key
                                           : std::string()),
                    false);
                // A cache hit is terminal at submit time; its completion
                // hook ran before the mapping existed, so answer here.  A
                // fast real job can also be terminal already -- but then
                // the hook raced us and may have consumed the mapping and
                // sent the result itself, so only send if the mapping is
                // still ours to consume.
                if (status && job_state_terminal(status->state)) {
                    bool unclaimed = false;
                    {
                        std::lock_guard<std::mutex> lock(route_mutex);
                        unclaimed = job_client.erase(result.job_id) > 0;
                    }
                    if (unclaimed)
                        (void)server.send(client, encode_result(*status),
                                          false);
                }
                break;
            }
            case ClientCommand::Op::Status: {
                const auto status = campaign_service.status(command.job_id);
                if (!status) {
                    (void)server.send(client, encode_rejected("unknown job"),
                                      false);
                    return;
                }
                (void)server.send(client, encode_status(*status), false);
                break;
            }
            case ClientCommand::Op::Cancel: {
                const bool ok = campaign_service.cancel(command.job_id);
                (void)server.send(
                    client,
                    ok ? encode_status(*campaign_service.status(
                             command.job_id))
                       : encode_rejected("unknown or finished job"),
                    false);
                break;
            }
            case ClientCommand::Op::Stats:
                (void)server.send(client,
                                  encode_stats(campaign_service.stats()),
                                  false);
                break;
            case ClientCommand::Op::Metrics:
                (void)server.send(
                    client,
                    encode_metrics(telemetry::snapshot(),
                                   campaign_service.metrics_info()),
                    false);
                break;
            case ClientCommand::Op::History: {
                if (service_config.ledger_path.empty()) {
                    (void)server.send(client,
                                      encode_rejected("no ledger configured"),
                                      false);
                    return;
                }
                // Re-read per request: the ledger is append-only and the
                // reader skips torn tails, so a concurrent append is
                // harmless and the reply is always current.
                obs::LedgerFile ledger;
                try {
                    ledger = obs::read_ledger(service_config.ledger_path);
                } catch (const std::exception& error) {
                    (void)server.send(client, encode_rejected(error.what()),
                                      false);
                    return;
                }
                std::erase_if(ledger.entries,
                              [&](const obs::LedgerEntry& entry) {
                                  return obs::fingerprint_key(
                                             entry.fingerprint) !=
                                         command.fingerprint;
                              });
                obs::sort_ledger(ledger.entries);
                (void)server.send(
                    client,
                    encode_history(command.fingerprint, ledger.entries),
                    false);
                break;
            }
            case ClientCommand::Op::Shutdown:
                (void)server.send(client, encode_shutting_down(), false);
                if (command.drain) {
                    draining = true;  // finish the backlog, then exit
                } else {
                    server.stop();  // cancel + persist below
                }
                break;
        }
    });

    // SIGTERM/SIGINT: cooperative shutdown -- running jobs are cancelled
    // (they write final checkpoints), unfinished requests go to the state
    // file, and the exit is clean.
    CancelToken term;
    ScopedSignalCancel signal_binding(term);
    std::uint64_t last_metrics_refresh_ns = 0;
    server.set_tick_handler([&] {
        if (term.requested()) server.stop();
        if (draining) {
            const auto stats = campaign_service.stats();
            if (stats.queued_now == 0 && stats.running_now == 0)
                server.stop();
        }
        if (!metrics_file.empty()) {
            // Rate-limited: the tick fires every accept timeout, the file
            // only needs to be fresh on a scrape's timescale.
            const std::uint64_t now = telemetry::steady_now_ns();
            if (now - last_metrics_refresh_ns >= 2'000'000'000ull) {
                last_metrics_refresh_ns = now;
                refresh_metrics_file(metrics_file, campaign_service);
            }
        }
    });

    try {
        server.listen();
    } catch (const std::exception& error) {
        std::fprintf(stderr, "glitchmaskd: %s\n", error.what());
        return 1;
    }
    const std::size_t resumed = campaign_service.load_state();
    if (resumed > 0)
        log::info("glitchmaskd: resubmitted " + std::to_string(resumed) +
                  " request(s) from the state file");
    log::info("glitchmaskd: serving on " + socket_config.socket_path);

    server.run();
    campaign_service.shutdown(/*cancel_running=*/true);
    // Final exposition so post-mortem scrapes see the complete run.
    if (!metrics_file.empty())
        refresh_metrics_file(metrics_file, campaign_service);
    return 0;
}

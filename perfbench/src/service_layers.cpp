// The service module's per-layer suite of traced runs.
//
// It starts a fresh glitchmaskd (2 executors, spool on) on a new socket
// and spool directory under the run's scratch directory, and removes both
// afterwards.  The daemon runs with PR_SET_PDEATHSIG and is killed by the
// owning object on every exit path, so a failing run leaves no daemon
// behind.
//
// The cache and coalescing shares come from a short closed-loop job mix
// over 3 connections on 2 client threads:
//   * misses  -- distinct small gadget_tvla / sequence_tvla jobs (seeded by
//                the workload seed and the job index), which execute;
//   * hits    -- resubmits of finished fingerprints, answered by the cache;
//   * pairs   -- one new request submitted on two connections at once,
//                which coalesce onto one execution.
// At most two jobs execute at a time (one per client thread), each with 2
// campaign workers, so the daemon never runs more than 4 campaign threads.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "eval/run_report.hpp"
#include "service/campaign_request.hpp"
#include "service/protocol.hpp"
#include "sim/compiled_simulator.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace gm = glitchmask;
using gm::eval::JsonValue;
using gm::service::CampaignRequest;

namespace {

constexpr unsigned kExecutors = 2;
/// Result cache entries: large enough that no finished fingerprint is
/// evicted within a run, so every resubmit is a hit.
constexpr unsigned kCacheEntries = 4096;
/// Socket timeout for any single reply: far above the largest job.
constexpr int kReplyTimeoutMs = 60000;

// ----- scratch directory, daemon process, connection ----------------------

/// A fresh directory under the run's scratch directory, removed with all
/// its contents on destruction.
class TempDir {
public:
    explicit TempDir(const std::string& parent) {
        std::string pattern = parent + "/sm-XXXXXX";
        if (::mkdtemp(pattern.data()) == nullptr)
            throw std::runtime_error("mkdtemp under " + parent + ": " +
                                     std::strerror(errno));
        path_ = pattern;
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

class Connection {
public:
    explicit Connection(const std::string& socket_path) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0) throw std::runtime_error("socket: " + errno_text());
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (socket_path.size() >= sizeof addr.sun_path)
            throw std::runtime_error("socket path too long: " + socket_path);
        std::strncpy(addr.sun_path, socket_path.c_str(),
                     sizeof addr.sun_path - 1);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) != 0) {
            const std::string error = errno_text();
            ::close(fd_);
            throw std::runtime_error("connect " + socket_path + ": " + error);
        }
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    void send(const std::string& line) {
        std::size_t sent = 0;
        while (sent < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + sent,
                                     line.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("send: " + errno_text());
            sent += static_cast<std::size_t>(n);
        }
    }

    /// Next complete line (without the newline).
    std::string read_line() {
        for (;;) {
            const std::size_t eol = buffer_.find('\n');
            if (eol != std::string::npos) {
                std::string line = buffer_.substr(0, eol);
                buffer_.erase(0, eol + 1);
                return line;
            }
            pollfd pfd{fd_, POLLIN, 0};
            const int ready = ::poll(&pfd, 1, kReplyTimeoutMs);
            if (ready < 0 && errno == EINTR) continue;
            if (ready <= 0) throw std::runtime_error("daemon reply timed out");
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("daemon closed the connection");
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /// Reads lines until one whose "event" is not "progress".
    JsonValue next_event() {
        for (;;) {
            JsonValue event = gm::eval::parse_json(read_line());
            const JsonValue* name = event.find("event");
            if (name == nullptr || name->string != "progress") return event;
        }
    }

private:
    static std::string errno_text() { return std::strerror(errno); }

    int fd_ = -1;
    std::string buffer_;
};

std::string event_name(const JsonValue& event) {
    const JsonValue* name = event.find("event");
    return name != nullptr ? name->string : std::string();
}

class Daemon {
public:
    /// Spawns glitchmaskd on `dir`/d.sock with spool `dir`/spool and waits
    /// for its first stats reply.
    Daemon(const std::string& binary, const std::string& dir)
        : socket_(dir + "/d.sock") {
        const std::string spool = dir + "/spool";
        std::filesystem::create_directories(spool);
        const std::string log = dir + "/glitchmaskd.log";
        const std::string executors = std::to_string(kExecutors);
        const std::string cache = std::to_string(kCacheEntries);
        const std::int64_t t0 = now_ns();
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, STDOUT_FILENO);
                ::dup2(fd, STDERR_FILENO);
            }
            const char* argv[] = {binary.c_str(), "--socket", socket_.c_str(),
                                  "--spool", spool.c_str(), "--executors",
                                  executors.c_str(), "--cache", cache.c_str(),
                                  nullptr};
            ::execv(binary.c_str(), const_cast<char* const*>(argv));
            std::_Exit(127);
        }
        for (;;) {
            try {
                Connection probe(socket_);
                probe.send("{\"op\":\"stats\"}\n");
                if (event_name(probe.next_event()) != "stats")
                    throw std::runtime_error("glitchmaskd: bad stats reply");
                break;
            } catch (const std::runtime_error&) {
                int status = 0;
                if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                    pid_ = -1;
                    throw std::runtime_error("glitchmaskd exited at start; see " +
                                             log);
                }
                if (seconds_since(t0) > 30.0)
                    throw std::runtime_error("glitchmaskd did not answer");
                ::usleep(500);
            }
        }
    }

    ~Daemon() {
        if (pid_ <= 0) return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

    /// Asks for a non-draining shutdown and reaps the process; kills it if
    /// it does not exit within 10 s.
    void shutdown() {
        try {
            Connection c(socket_);
            c.send("{\"op\":\"shutdown\",\"drain\":false}\n");
            (void)c.next_event();
        } catch (const std::runtime_error&) {
        }
        for (int i = 0; i < 10000; ++i) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            ::usleep(1000);
        }
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

    /// The daemon's stats reply.
    [[nodiscard]] JsonValue stats() const {
        Connection c(socket_);
        c.send("{\"op\":\"stats\"}\n");
        return c.next_event();
    }

private:
    std::string socket_;
    pid_t pid_ = -1;
};

double number(const JsonValue& object, const char* key) {
    const JsonValue* member = object.find(key);
    if (member == nullptr)
        throw std::runtime_error(std::string("reply lacks '") + key + "'");
    return member->as_number();
}

bool flag(const JsonValue& object, const char* key) {
    const JsonValue* member = object.find(key);
    return member != nullptr && member->boolean;
}

// ----- the request mix ----------------------------------------------------

/// Job `index` of the mix: a distinct small gadget or sequence TVLA whose
/// size is log-uniform over the kind's range.  Everything is a pure
/// function of (seed, index).
CampaignRequest mix_request(std::uint64_t seed, std::uint64_t index) {
    gm::Xoshiro256 rng(gm::mix64(seed, index));
    const bool gadget = rng() % 10 < 7;
    CampaignRequest request = gm::service::default_request(
        gadget ? gm::service::CampaignKind::GadgetTvla
               : gm::service::CampaignKind::SequenceTvla);
    request.seed = gm::mix64(seed ^ 0x6a6f62ULL, index);
    request.workers = kWorkers;
    // Blocks of 1024, not the default 64: with 64 the spool fsyncs about
    // 1000 checkpoints a second and throughput follows the host disk.
    request.block_size = 1024;
    // Traces per job, log-uniform in [lo, lo * 2^span), whole blocks.
    const double lo = gadget ? 49152.0 : 24576.0;
    const double span = 3.0;
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    request.traces =
        static_cast<std::size_t>(lo * std::exp2(u * span)) / 1024 * 1024;
    if (gadget) {
        request.gadget = gm::eval::kAllGadgets[rng() % 6];
    } else {
        for (std::size_t i = 3; i > 0; --i)
            std::swap(request.sequence[i], request.sequence[rng() % (i + 1)]);
    }
    return request;
}

std::string submit_line(const CampaignRequest& request) {
    const std::string body = gm::service::encode_request(request);
    return "{\"op\":\"submit\"," + body.substr(1) + "\n";
}

/// State shared by the clients of one mix on one daemon.
struct MixState {
    std::uint64_t seed = 0;
    std::atomic<std::uint64_t> next_index{0};
    std::mutex mutex;  // guards everything below
    std::vector<std::uint64_t> finished;  // indices of completed requests
    std::vector<std::string> errors;
};

/// Awaits the result of one submit on `conn`.  A rejected, overloaded or
/// failed submit, and an executed job that resumed from a spool snapshot
/// (the spool is fresh), is recorded as an error and returns false.
bool await_result(MixState& state, Connection& conn) {
    std::optional<JsonValue> result;
    std::string error;
    try {
        for (;;) {
            JsonValue event = conn.next_event();
            const std::string name = event_name(event);
            if (name == "accepted") continue;
            if (name != "result") {
                error = "submit answered with '" + name + "'";
                break;
            }
            const JsonValue* st = event.find("state");
            if (st == nullptr || st->string != "completed") {
                error = "job ended " + (st != nullptr ? st->string : "?");
                break;
            }
            result = std::move(event);
            break;
        }
    } catch (const std::exception& e) {
        error = e.what();
    }
    if (result && !flag(*result, "cached") && !flag(*result, "coalesced") &&
        flag(*result, "resumed"))
        error = "fresh job resumed from a spool snapshot";
    if (error.empty()) return true;
    const std::lock_guard lock(state.mutex);
    state.errors.push_back(error);
    return false;
}

class MixClient {
public:
    MixClient(MixState& state, const std::string& socket, bool pairs,
              std::uint64_t stream)
        : state_(state), pairs_(pairs), rng_(gm::mix64(state.seed, stream)) {
        conns_.push_back(std::make_unique<Connection>(socket));
        if (pairs_) conns_.push_back(std::make_unique<Connection>(socket));
    }

    /// Issues operations until `deadline_ns`.
    void run_until(std::int64_t deadline_ns) {
        while (now_ns() < deadline_ns) {
            const std::uint64_t roll = rng_() % 100;
            if (roll < (pairs_ ? 45u : 60u)) {
                miss();
            } else if (roll < (pairs_ ? 75u : 100u)) {
                hit();
            } else {
                pair();
            }
        }
    }

private:
    void record(std::uint64_t index) {
        const std::lock_guard lock(state_.mutex);
        state_.finished.push_back(index);
    }

    void miss() {
        const std::uint64_t index = state_.next_index.fetch_add(1);
        const gm::trace::ScopedSpan span("service.submit_miss");
        conns_[0]->send(submit_line(mix_request(state_.seed, index)));
        if (await_result(state_, *conns_[0])) record(index);
    }

    void hit() {
        std::optional<std::uint64_t> pick;
        {
            const std::lock_guard lock(state_.mutex);
            if (!state_.finished.empty())
                pick = state_.finished[rng_() % state_.finished.size()];
        }
        if (!pick) return miss();
        const gm::trace::ScopedSpan span("service.submit_hit");
        conns_[0]->send(submit_line(mix_request(state_.seed, *pick)));
        (void)await_result(state_, *conns_[0]);
    }

    void pair() {
        const std::uint64_t index = state_.next_index.fetch_add(1);
        const std::string line = submit_line(mix_request(state_.seed, index));
        const gm::trace::ScopedSpan span("service.submit_pair");
        conns_[0]->send(line);
        conns_[1]->send(line);
        const bool first = await_result(state_, *conns_[0]);
        const bool second = await_result(state_, *conns_[1]);
        if (first && second) record(index);
    }

    MixState& state_;
    bool pairs_;
    gm::Xoshiro256 rng_;
    std::vector<std::unique_ptr<Connection>> conns_;
};

/// Drives the mix on `socket` for `seconds`.
void run_mix_phase(MixState& state, const std::string& socket, double seconds) {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    const gm::trace::SpanId parent = gm::trace::current_span();
    std::vector<std::string> thread_errors(2);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            gm::trace::push_ambient(parent);
            try {
                MixClient client(state, socket, /*pairs=*/t == 1, 0xC0 + t);
                client.run_until(deadline);
            } catch (const std::exception& error) {
                thread_errors[t] = error.what();
            }
            gm::trace::pop_ambient();
        });
    }
    for (std::thread& thread : threads) thread.join();
    for (const std::string& error : thread_errors)
        if (!error.empty()) state.errors.push_back("client: " + error);
}

}  // namespace

void service_layers(const Options& options, Report& report) {
    const gm::trace::ScopedSpan layers_span("layers.service");
    constexpr std::uint64_t kLayerSeed = 0x6c61796572ULL;  // "layer"

    // Codec: one request's full wire round, in-process.
    {
        constexpr int kOps = 2000;
        gm::service::JobStatus status;
        status.state = gm::service::JobState::Completed;
        status.outcome.metrics = {{"max_abs_t_order1", 1.25},
                                  {"max_abs_t_order2", 7.5},
                                  {"argmax_cycle", 2.0},
                                  {"leaks_first_order", 0.0}};
        std::size_t bytes = 0;
        const gm::trace::ScopedSpan span("service.codec");
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < kOps; ++i) {
            status.request = mix_request(kLayerSeed ^ options.seed,
                                         static_cast<std::uint64_t>(i));
            const std::string line = gm::service::encode_request(status.request);
            const CampaignRequest decoded =
                gm::service::decode_request(gm::eval::parse_json(line));
            bytes += gm::service::encode_result(status).size() + decoded.traces;
        }
        report.layer("service.codec_us", seconds_since(t0) * 1e6 / kOps);
        if (bytes == 0) report.errors.push_back("codec produced nothing");
    }

    const TempDir dir(options.workdir);
    const auto daemon = std::make_unique<Daemon>(options.daemon, dir.path());

    Connection conn(daemon->socket());
    std::vector<double> ping_us;
    {
        const gm::trace::ScopedSpan span("service.ping");
        for (int i = 0; i < 200; ++i) {
            const std::int64_t t0 = now_ns();
            conn.send("{\"op\":\"stats\"}\n");
            (void)conn.next_event();
            ping_us.push_back(seconds_since(t0) * 1e6);
        }
    }
    report.layer("service.ping_rtt_us", median(ping_us));

    // Job overhead: socket round trip minus the same request in-process,
    // alternating, with nothing else running.
    MixState probe;
    probe.seed = kLayerSeed ^ options.seed;
    std::vector<double> overhead_ms;
    const gm::sim::CompiledCacheStats cache0 =
        gm::sim::compiled_program_cache_stats();
    constexpr std::uint64_t kProbeJobs = 5;
    for (std::uint64_t index = 0; index < kProbeJobs; ++index) {
        const CampaignRequest request = mix_request(probe.seed, index);
        double socket_ms = 0.0, inproc_ms = 0.0;
        {
            const gm::trace::ScopedSpan span("service.job_socket");
            const std::int64_t t0 = now_ns();
            conn.send(submit_line(request));
            if (!await_result(probe, conn)) continue;
            socket_ms = seconds_since(t0) * 1e3;
        }
        {
            const gm::trace::ScopedSpan span("service.job_in_process");
            const std::int64_t t0 = now_ns();
            (void)gm::service::run_campaign_request(request, {});
            inproc_ms = seconds_since(t0) * 1e3;
        }
        overhead_ms.push_back(socket_ms - inproc_ms);
    }
    const gm::sim::CompiledCacheStats cache1 =
        gm::sim::compiled_program_cache_stats();
    const double lookups = static_cast<double>(
        (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses));
    report.layer("sim.program_cache_hit_ratio",
                 lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) /
                                   lookups
                             : 0.0);
    report.layer("service.job_overhead_ms",
                 overhead_ms.empty() ? 0.0 : median(overhead_ms));

    std::vector<double> hit_us;
    {
        const gm::trace::ScopedSpan span("service.hit");
        for (int i = 0; i < 200; ++i) {
            const CampaignRequest request =
                mix_request(probe.seed, static_cast<std::uint64_t>(i) % kProbeJobs);
            const std::int64_t t0 = now_ns();
            conn.send(submit_line(request));
            if (await_result(probe, conn))
                hit_us.push_back(seconds_since(t0) * 1e6);
        }
    }
    report.layer("service.hit_rtt_us", hit_us.empty() ? 0.0 : median(hit_us));

    // Cache and coalescing shares of a short mix, from the stats verb.
    const JsonValue before = daemon->stats();
    MixState mix;
    mix.seed = options.seed;
    {
        const gm::trace::ScopedSpan span("service.mix");
        run_mix_phase(mix, daemon->socket(), 3.0);
    }
    const JsonValue after = daemon->stats();
    const auto delta = [&](const char* key) {
        return number(after, key) - number(before, key);
    };
    const double lookups_svc = delta("cache_hits") + delta("cache_misses");
    report.layer("service.cache_hit_ratio",
                 lookups_svc > 0 ? delta("cache_hits") / lookups_svc : 0.0);
    report.layer("service.coalesced_share",
                 delta("submitted") > 0 ? delta("coalesced") / delta("submitted")
                                        : 0.0);
    for (const std::string& error : probe.errors)
        report.errors.push_back("service layers: " + error);
    for (const std::string& error : mix.errors)
        report.errors.push_back("service layers: " + error);
    daemon->shutdown();
}

}  // namespace perfbench

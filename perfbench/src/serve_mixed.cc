/**
 * serve-mixed: a closed-loop job stream against a spawned qd_served.
 *
 * One process drives kConnections connections, each keeping
 * kOutstanding submissions in flight (the next job is sent when a result
 * arrives), so the daemon's admission queue always holds work. Latency is
 * timed at the client from send to result. After the timed section every
 * distinct job document is executed in-process through serve::execute
 * and each daemon result must match it bit for bit.
 */
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "constructions/gen_toffoli.h"
#include "jobs.h"
#include "layers.h"
#include "noise/density_matrix.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/simulator.h"
#include "serve/client.h"
#include "serve/run.h"
#include "workloads.h"

namespace pb {

namespace {

constexpr int kConnections = 4;
constexpr int kOutstanding = 2;
constexpr int kWorkers = 4;
/** Stream length: kJobsPerSecond per requested second (--seconds 20 is
 *  3000 jobs, about 13 s on a 4-core box), and at least kMinJobs so that
 *  p99 has 10 samples beyond it. */
constexpr long long kJobsPerSecond = 150;
constexpr long long kMinJobs = 1000;
/** Setups timed before the session and again after it. */
constexpr int kSetupReps = 24;
/** Jobs in the serving probe of traced Figure 11 runs. */
constexpr long long kProbeJobs = 64;

// ------------------------------------------------------------ daemon ---

/** A spawned qd_served; stop() drains it and collects its peak RSS. */
class DaemonProcess {
  public:
    DaemonProcess(const std::string& binary, const std::string& socket,
                  const std::string& log)
        : socket_(socket)
    {
        std::filesystem::remove(socket);
        const std::string workers = std::to_string(kWorkers);
        std::vector<std::string> argv_s = {binary,      "--socket",
                                           socket,      "--workers",
                                           workers,     "--engine-threads",
                                           "1"};
        std::vector<char*> argv;
        for (auto& s : argv_s) {
            argv.push_back(s.data());
        }
        argv.push_back(nullptr);
        const pid_t parent = getpid();
        pid_ = fork();
        if (pid_ < 0) {
            throw std::runtime_error("fork failed");
        }
        if (pid_ == 0) {
            // The daemon must not outlive the benchmark.
            prctl(PR_SET_PDEATHSIG, SIGTERM);
            if (getppid() != parent) {
                _exit(127);
            }
            const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                                0644);
            if (fd >= 0) {
                dup2(fd, 1);
                dup2(fd, 2);
                close(fd);
            }
            execv(argv[0], argv.data());
            _exit(127);
        }
    }

    ~DaemonProcess() { stop(); }
    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    /** Polls until the socket accepts a connection. */
    void wait_ready() const
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (socket_.size() >= sizeof(addr.sun_path)) {
            throw std::runtime_error("socket path too long: " + socket_);
        }
        std::strncpy(addr.sun_path, socket_.c_str(),
                     sizeof(addr.sun_path) - 1);
        const auto t0 = Clock::now();
        while (seconds_since(t0) < 20) {
            const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd >= 0 &&
                ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) == 0) {
                close(fd);
                return;
            }
            if (fd >= 0) {
                close(fd);
            }
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                throw std::runtime_error("qd_served exited during start");
            }
            usleep(500);
        }
        throw std::runtime_error("qd_served did not start listening");
    }

    /** SIGTERM (graceful drain), then reap. Returns peak RSS in MiB. */
    double stop()
    {
        if (pid_ <= 0) {
            return peak_rss_mb_;
        }
        kill(pid_, SIGTERM);
        int status = 0;
        rusage usage{};
        while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
        return peak_rss_mb_;
    }

    const std::string& socket() const { return socket_; }

  private:
    std::string socket_;
    pid_t pid_ = -1;
    double peak_rss_mb_ = 0;
};

// ------------------------------------------------------ wire parsing ---

/** Raw token after `"key": ` (strings without their quotes). */
std::string
field(const std::string& line, const char* key, std::size_t from = 0)
{
    const std::string pat = std::string("\"") + key + "\": ";
    const auto at = line.find(pat, from);
    if (at == std::string::npos) {
        return "";
    }
    std::size_t b = at + pat.size();
    if (b < line.size() && line[b] == '"') {
        const auto e = line.find('"', b + 1);
        return line.substr(b + 1, e - b - 1);
    }
    auto e = line.find_first_of(",}", b);
    return line.substr(b, e - b);
}

struct JobRecord {
    GeneratedJob job;
    Clock::time_point sent;
    Clock::time_point received;
    std::string status;
    std::string error_id;
    double value = 0;
    double std_error = 0;
    bool warm = false;
    double compile_s = 0;
    double exec_s = 0;
    double seconds = 0;

    double latency_s() const
    {
        return std::chrono::duration<double>(received - sent).count();
    }
    const JobShape& shape() const
    {
        return job_shapes().at(static_cast<std::size_t>(job.shape));
    }
};

void
parse_result(const std::string& line, JobRecord& r)
{
    if (field(line, "type") != "result") {
        r.status = "error";
        r.error_id = field(line, "error_id");
        return;
    }
    const auto at = line.find("\"result\": ");
    r.status = field(line, "status", at);
    r.error_id = field(line, "error_id", at);
    r.value = std::strtod(field(line, "value", at).c_str(), nullptr);
    r.std_error = std::strtod(field(line, "std_error", at).c_str(), nullptr);
    r.warm = field(line, "warm", at) == "true";
    r.compile_s = std::atof(field(line, "compile_seconds", at).c_str());
    r.exec_s = std::atof(field(line, "exec_seconds", at).c_str());
    r.seconds = std::atof(field(line, "seconds", at).c_str());
}

struct DaemonStats {
    double warm_hits = 0;
    double rejected = 0;
    double failed = 0;
};

// ----------------------------------------------------------- session ---

struct Session {
    std::vector<JobRecord> jobs;  ///< in completion order
    double wall_s = 0;
    DaemonStats stats;
    double daemon_rss_mb = 0;
};

std::string
submit_frame(const std::string& id, const std::string& qdj)
{
    return "{\"type\": \"submit\", \"id\": \"" + id + "\", \"qdj\": \"" +
           qd::serve::json_escape(qdj) + "\"}";
}

/**
 * Drives the closed loop: every connection submits exactly `per_conn`
 * jobs, keeping kOutstanding in flight. Then reads the stats frame and
 * stops the daemon.
 */
Session
run_session(const JobSet& set, DaemonProcess& daemon, std::uint64_t seed,
            long long per_conn)
{
    Session session;
    std::mutex mu;
    std::atomic<bool> broken{false};
    const auto t0 = Clock::now();

    auto drive_connection = [&](int conn) {
        // The client side of the serve layer: queue, framing, socket and
        // the daemon's work, as one span per connection.
        qd::obs::ScopedSpan span("serve", "connection");
        span.arg("connection", conn);
        qd::serve::Client client;
        if (!client.connect(daemon.socket())) {
            broken = true;
            return;
        }
        JobStream stream(set, seed, conn);
        std::map<std::string, JobRecord> pending;
        long long seq = 0;
        auto send_next = [&]() {
            JobRecord r;
            r.job = stream.next();
            const std::string id =
                "c" + std::to_string(conn) + "-" + std::to_string(seq++);
            const std::string frame = submit_frame(id, *r.job.qdj);
            r.sent = Clock::now();
            pending.emplace(id, std::move(r));
            if (!client.send_line(frame)) {
                broken = true;
            }
        };
        for (int k = 0; k < kOutstanding && seq < per_conn; ++k) {
            send_next();
        }
        while (!pending.empty() && !broken) {
            const auto line = client.recv_line();
            const auto now = Clock::now();
            if (!line) {
                broken = true;
                break;
            }
            const auto it = pending.find(field(*line, "id"));
            if (it == pending.end()) {
                broken = true;
                break;
            }
            JobRecord r = std::move(it->second);
            pending.erase(it);
            r.received = now;
            parse_result(*line, r);
            {
                std::lock_guard<std::mutex> lock(mu);
                session.jobs.push_back(std::move(r));
            }
            if (seq < per_conn) {
                send_next();
            }
        }
        client.send_line("{\"type\": \"shutdown\"}");
        while (const auto line = client.recv_line()) {
            if (field(*line, "type") == "bye") {
                break;
            }
        }
    };
    auto drive = [&](int conn) {
        try {
            drive_connection(conn);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "connection %d: %s\n", conn, e.what());
            broken = true;
        }
    };

    std::vector<std::thread> pool;
    for (int c = 0; c < kConnections; ++c) {
        pool.emplace_back(drive, c);
    }
    for (auto& t : pool) {
        t.join();
    }
    session.wall_s = seconds_since(t0);
    if (broken) {
        daemon.stop();
        throw std::runtime_error("connection to qd_served failed");
    }

    qd::serve::Client client;
    if (client.connect(daemon.socket()) &&
        client.send_line("{\"type\": \"stats\"}")) {
        if (const auto line = client.recv_line()) {
            session.stats.warm_hits =
                std::atof(field(*line, "obs_serve_warm_hits").c_str());
            session.stats.rejected =
                std::atof(field(*line, "obs_serve_jobs_rejected").c_str());
            session.stats.failed =
                std::atof(field(*line, "obs_serve_jobs_failed").c_str());
        }
        client.send_line("{\"type\": \"shutdown\"}");
        while (const auto line = client.recv_line()) {
            if (field(*line, "type") == "bye") {
                break;
            }
        }
    }
    client.close();
    session.daemon_rss_mb = daemon.stop();
    return session;
}

// ------------------------------------------------------------- check ---

/**
 * Executes every distinct job document in-process through serve::execute
 * (kWorkers threads, one shared CompileService, single-threaded engines
 * as in the daemon). Returns the number of records whose status is not
 * ok or whose value or standard error differs in any bit.
 */
long long
check_session(const Session& session)
{
    std::vector<const std::string*> unique;
    std::map<const std::string*, std::size_t> slot;
    for (const auto& r : session.jobs) {
        if (slot.emplace(r.job.qdj.get(), unique.size()).second) {
            unique.push_back(r.job.qdj.get());
        }
    }
    std::vector<qd::serve::RunResult> expected(unique.size());
    qd::exec::CompileService service;
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i = next++; i < unique.size(); i = next++) {
            try {
                qd::serve::RunRequest request =
                    qd::serve::RunRequest::from_qdj(*unique[i]);
                request.threads = 1;
                expected[i] = qd::serve::execute(request, service);
            } catch (const std::exception& e) {
                expected[i].status = "rejected";
                expected[i].message = e.what();
            }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < kWorkers; ++t) {
        pool.emplace_back(work);
    }
    for (auto& t : pool) {
        t.join();
    }
    long long failed = 0;
    for (const auto& r : session.jobs) {
        const auto& want = expected[slot.at(r.job.qdj.get())];
        if (!served_result_ok(r.status, r.value, r.std_error, want.status,
                              want.value, want.std_error)) {
            ++failed;
            if (failed <= 5) {
                std::fprintf(stderr,
                             "FAIL job %s: status %s %s value %.17g "
                             "expected %s %.17g\n",
                             r.job.name.c_str(), r.status.c_str(),
                             r.error_id.c_str(), r.value,
                             want.status.c_str(), want.value);
            }
        }
    }
    return failed;
}

// ------------------------------------------------------------ replay ---

/**
 * Replays the session's job documents in-process, layer by layer
 * (parse, compile, admission for cold compiles, execute), with spans and
 * the obs counters on: the request path the daemon runs, timed around
 * each public call.
 */
void
replay_layers(const Session& session, Metrics& m)
{
    std::vector<const JobRecord*> order;
    for (const auto& r : session.jobs) {
        order.push_back(&r);
    }
    std::sort(order.begin(), order.end(),
              [](const JobRecord* a, const JobRecord* b) {
                  return a->sent < b->sent;
              });
    qd::exec::CompileService service;
    std::mutex mu;
    std::vector<double> parse_ms;
    std::vector<double> admit_ms;
    std::vector<double> cold_ms;
    std::vector<double> warm_us;
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i = next++; i < order.size(); i = next++) {
            const JobRecord& r = *order[i];
            qd::obs::ScopedSpan job("bench", "replay " + r.job.name);
            job.arg("job", static_cast<std::int64_t>(i));
            qd::serve::RunRequest request;
            double parse = 0;
            {
                qd::obs::ScopedSpan s("ir", "parse");
                const auto t0 = Clock::now();
                request = qd::serve::RunRequest::from_qdj(*r.job.qdj);
                parse = seconds_since(t0);
            }
            const qd::ir::Job& j = request.job;
            const auto model = qd::noise::model_by_name(j.noise);
            bool hit = false;
            double compile = 0;
            std::shared_ptr<const qd::exec::CompiledArtifact> artifact;
            {
                qd::obs::ScopedSpan s("compile", "compile");
                const auto t0 = Clock::now();
                if (j.engine == "state") {
                    artifact = service.compile(j.circuit, request.fusion,
                                               request.admission, &hit);
                } else {
                    artifact = service.compile(
                        j.circuit, *model,
                        j.engine == "trajectory"
                            ? qd::exec::EngineKind::kTrajectory
                            : qd::exec::EngineKind::kDensity,
                        request.fusion, request.admission, &hit);
                }
                compile = seconds_since(t0);
            }
            double admit = -1;
            if (!hit) {
                qd::obs::ScopedSpan s("verify", "admit");
                const auto t0 = Clock::now();
                if (model) {
                    qd::exec::CompileService::admission_report(
                        j.circuit, *model, request.admission, request.fusion);
                } else {
                    qd::exec::CompileService::admission_report(
                        j.circuit, request.admission, request.fusion);
                }
                admit = seconds_since(t0);
            }
            if (j.engine == "state") {
                qd::obs::ScopedSpan s("kernel", "execute");
                qd::simulate(*artifact->state);
            } else if (j.engine == "trajectory") {
                qd::obs::ScopedSpan s("traj", "execute");
                qd::noise::TrajectoryOptions opts;
                opts.trials = j.shots;
                opts.seed = j.seed;
                opts.batch = j.batch;
                opts.threads = 1;
                qd::noise::run_noisy_trials(*artifact->trajectory, opts);
            } else {
                qd::obs::ScopedSpan s("density", "execute");
                const qd::StateVector initial(artifact->density->dims());
                qd::noise::density_matrix_fidelity(*artifact->density,
                                                   initial);
            }
            std::lock_guard<std::mutex> lock(mu);
            parse_ms.push_back(parse * 1e3);
            if (hit) {
                warm_us.push_back(compile * 1e6);
            } else {
                cold_ms.push_back(compile * 1e3);
                admit_ms.push_back(admit * 1e3);
            }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < kWorkers; ++t) {
        pool.emplace_back(work);
    }
    for (auto& t : pool) {
        t.join();
    }
    m.set("ir.parse_ms_p50", percentile(parse_ms, 50), "ms");
    m.set("verify.admit_ms_p50", percentile(admit_ms, 50), "ms");
    m.set("compile.cold_ms_p50", percentile(cold_ms, 50), "ms");
    m.set("compile.warm_us_p50", percentile(warm_us, 50), "us");
}

/** serve.* and density.* per-layer metrics of one traced session. */
void
serve_layer_metrics(const Session& session, Metrics& m)
{
    std::vector<double> compile_ms;
    std::vector<double> exec_ms;
    std::vector<double> outside_ms;
    std::vector<double> density_ms;
    for (const auto& r : session.jobs) {
        compile_ms.push_back(r.compile_s * 1e3);
        exec_ms.push_back(r.exec_s * 1e3);
        outside_ms.push_back((r.latency_s() - r.seconds) * 1e3);
        if (std::string(r.shape().engine) == "density") {
            density_ms.push_back(r.exec_s * 1e3);
        }
    }
    m.set("serve.compile_ms_p50", percentile(compile_ms, 50), "ms");
    m.set("serve.exec_ms_p50", percentile(exec_ms, 50), "ms");
    m.set("serve.outside_ms_p50", percentile(outside_ms, 50), "ms");
    m.set("serve.outside_ms_p99", percentile(outside_ms, 99), "ms");
    m.set("serve.warm_hits", session.stats.warm_hits, "count");
    m.set("serve.rejected", session.stats.rejected, "count");
    m.set("serve.failed", session.stats.failed, "count");
    m.set("density.exec_ms_p50", percentile(density_ms, 50), "ms");
}

std::string
socket_path(const Args& args, int index)
{
    return args.out_dir + "/qd-" + std::to_string(getpid()) + "-" +
           std::to_string(index) + ".sock";
}

}  // namespace

void
serve_probe(const Args& args, const std::string& bin_dir, Outcome& out)
{
    std::filesystem::create_directories(args.out_dir);
    const JobSet set(args.seed);
    DaemonProcess daemon(bin_dir + "/qd_served", socket_path(args, 0),
                         args.out_dir + "/qd_served.log");
    daemon.wait_ready();
    Session session =
        run_session(set, daemon, args.seed, kProbeJobs / kConnections);
    out.attempted += static_cast<long long>(session.jobs.size());
    out.failed += check_session(session);
    serve_layer_metrics(session, out.metrics);
}

Outcome
run_serve_mixed(const Args& args, const RunMeta& meta,
                const std::string& bin_dir)
{
    Outcome out;
    std::filesystem::create_directories(args.out_dir);
    const std::string binary = bin_dir + "/qd_served";
    const std::string log = args.out_dir + "/qd_served.log";
    if (!std::filesystem::exists(binary)) {
        throw std::runtime_error("qd_served not built: " + binary);
    }

    // Setup: build the circuits and hot job documents, start the daemon
    // and wait until its socket accepts. setup_s is the fastest of
    // kSetupReps setups before the session (the last one serves it) and
    // kSetupReps after it, for the reason given in run_fig11.
    std::vector<double> setup;
    std::vector<double> build;
    std::unique_ptr<JobSet> set;
    std::unique_ptr<DaemonProcess> daemon;
    int sockets = 0;
    auto set_up = [&] {
        if (daemon) {
            daemon->stop();
        }
        const auto t0 = Clock::now();
        set = std::make_unique<JobSet>(args.seed);
        daemon = std::make_unique<DaemonProcess>(
            binary, socket_path(args, sockets++), log);
        daemon->wait_ready();
        setup.push_back(seconds_since(t0));
        build.push_back(set->build_seconds());
    };
    for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
        set_up();
    }

    const long long total = std::max(
        kMinJobs, static_cast<long long>(kJobsPerSecond * args.seconds));
    const long long per_conn = (total + kConnections - 1) / kConnections;
    Session session = run_session(*set, *daemon, args.seed, per_conn);
    if (!args.trace) {
        for (int rep = 0; rep < kSetupReps; ++rep) {
            set_up();
        }
        daemon->stop();
    }
    const long long failed = check_session(session);
    out.attempted += static_cast<long long>(session.jobs.size());
    out.failed += failed;
    std::printf("session: %zu jobs in %.3f s, %lld failed\n",
                session.jobs.size(), session.wall_s, failed);

    if (!args.trace) {
        std::vector<double> latency_ms;
        std::vector<double> cold_ms;
        double traj_exec = 0;
        double traj_shots = 0;
        for (const auto& r : session.jobs) {
            latency_ms.push_back(r.latency_s() * 1e3);
            if (!r.warm) {
                cold_ms.push_back(r.latency_s() * 1e3);
            }
            if (std::string(r.shape().engine) == "trajectory") {
                traj_exec += r.exec_s;
                traj_shots += r.shape().shots;
            }
        }
        const double p = reportable_percentile(latency_ms.size());
        Metrics& m = out.metrics;
        m.set("setup_s", percentile(setup, 0), "s");
        m.set("wall_s", session.wall_s, "s");
        m.set("traj_per_s", traj_exec > 0 ? traj_shots / traj_exec : 0,
              "1/s");
        m.set("jobs_per_s",
              static_cast<double>(session.jobs.size()) / session.wall_s,
              "1/s");
        m.set("job_p50_ms", percentile(latency_ms, 50), "ms");
        m.set("job_p99_ms", percentile(latency_ms, p), "ms");
        m.set("job_cold_p50_ms", percentile(cold_ms, 50), "ms");
        m.set("peak_rss_mb", session.daemon_rss_mb, "MB");
        std::printf("latency tail percentile with >= 10 samples beyond: p%g "
                    "(%zu jobs, %zu cold)\n",
                    p, latency_ms.size(), cold_ms.size());
        print_setup(setup);
        return out;
    }

    // ---- traced run: with qd::obs tracing on, the same stream again
    // (one connection span each), the in-process layer replay and the
    // probes.
    Metrics& m = out.metrics;
    init_layer_metrics(m);
    const double untraced_rate =
        static_cast<double>(session.jobs.size()) / session.wall_s;
    const int threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

    qd::obs::trace_begin();
    Ceiling ceiling;
    {
        qd::obs::ScopedSpan s("machine", "ceiling");
        ceiling = measure_ceiling(meta.llc_bytes, threads);
    }
    ceiling_metrics(ceiling, m);
    {
        qd::obs::ScopedSpan s("constructions", "build");
        set = std::make_unique<JobSet>(args.seed);
    }
    m.set("constructions.build_s", percentile(build, 0), "s");

    DaemonProcess traced_daemon(binary, socket_path(args, sockets++), log);
    traced_daemon.wait_ready();
    Session traced = run_session(*set, traced_daemon, args.seed, per_conn);
    const long long traced_failed = check_session(traced);
    out.attempted += static_cast<long long>(traced.jobs.size());
    out.failed += traced_failed;
    m.set("trace.overhead_frac",
          untraced_rate /
                  (static_cast<double>(traced.jobs.size()) / traced.wall_s) -
              1,
          "ratio");

    serve_layer_metrics(traced, m);
    double traj_exec = 0;
    double traj_shots = 0;
    for (const auto& r : traced.jobs) {
        if (std::string(r.shape().engine) == "trajectory") {
            traj_exec += r.exec_s;
            traj_shots += r.shape().shots;
        }
    }
    m.set("traj.s_per_traj", traj_shots > 0 ? traj_exec / traj_shots : 0,
          "s");

    qd::obs::set_enabled(true);
    qd::obs::reset_counters();
    const auto before = qd::obs::counters_snapshot();
    replay_layers(traced, m);
    const auto after = qd::obs::counters_snapshot();
    qd::obs::set_enabled(false);
    counter_metrics(before, after, m);

    // The kernels of the state jobs, compiled as the daemon compiles them.
    qd::exec::CompileService service;
    std::vector<std::shared_ptr<const qd::exec::CompiledArtifact>> artifacts;
    std::vector<const qd::exec::CompiledCircuit*> state_circuits;
    for (const auto& qdj : set->hot()) {
        const auto request = qd::serve::RunRequest::from_qdj(*qdj);
        if (request.job.engine == "state") {
            artifacts.push_back(service.compile(
                request.job.circuit, request.fusion, request.admission));
            state_circuits.push_back(artifacts.back()->state.get());
        }
    }
    const auto small =
        qd::ctor::build_gen_toffoli(qd::ctor::Method::kQutrit, 2);
    kernel_layer(state_circuits, small.circuit, ceiling, m);
    const qd::Circuit& widest = set->largest_state_circuit();
    state_layer(widest.dims(), ceiling, m);
    m.set("traj.scaling_eff",
          trajectory_scaling(widest.dims().num_wires(), threads, args.seed),
          "ratio");
    const auto events = qd::obs::trace_end();
    self_time_metrics(events, m);
    qd::obs::write_chrome_trace(events, args.out_dir + "/" + args.workload +
                                            "-seed" +
                                            std::to_string(args.seed) +
                                            ".trace.json");
    return out;
}

}  // namespace pb

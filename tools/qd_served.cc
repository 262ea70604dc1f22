/**
 * @file qd_served.cc
 * Long-lived job daemon: serves streams of .qdj jobs to many concurrent
 * clients over a Unix-domain socket, with NDJSON framing (see
 * src/serve/protocol.h), a bounded worker pool, per-client quotas, and
 * warm artifact sharing through the global CompileService. SIGTERM and
 * SIGINT trigger a graceful drain: no new admissions, every admitted
 * job finishes and streams its result, then the daemon exits 0.
 *
 * Usage:
 *   qd_served --socket PATH [--workers N] [--queue N]
 *             [--max-client-jobs N] [--max-client-shots N]
 *             [--engine-threads N] [--stats-json FILE]
 *   qd_served --stdin [--engine-threads N] [--max-client-shots N]
 *             [--stats-json FILE]
 *
 * --stdin runs the single-client loop over stdin/stdout (one frame per
 * line, responses flushed per frame) — the no-socket mode tests and CI
 * pipes use. --stats-json writes the final ServeStats JSON on exit.
 * Every N is a whole non-negative decimal; anything else prints the
 * usage and exits 2. --engine-threads 0 gives each job all cores.
 */
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>

#include "serve/daemon.h"

namespace {

std::atomic<int> g_signal{0};

void
on_signal(int sig)
{
    g_signal.store(sig);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: qd_served --socket PATH [--workers N] [--queue N]\n"
        "                 [--max-client-jobs N] [--max-client-shots N]\n"
        "                 [--engine-threads N] [--stats-json FILE]\n"
        "       qd_served --stdin [--engine-threads N]\n"
        "                 [--max-client-shots N] [--stats-json FILE]\n");
    return 2;
}

/** Parses `text` as a whole non-negative decimal count into `out`; false
 *  (leaving `out` alone) on a sign, trailing text or overflow. A typo must
 *  not become 0 or a negative count, which the engine reads as "all
 *  cores" for every job. */
template <class T>
bool
parse_count(const char* text, T& out)
{
    const char* end = text + std::strlen(text);
    long long v = 0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || v < 0 ||
        static_cast<unsigned long long>(v) >
            static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
        return false;
    }
    out = static_cast<T>(v);
    return true;
}

int
write_stats(const std::string& path, const qd::serve::ServeStats& stats)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "qd_served: cannot write %s\n", path.c_str());
        return 1;
    }
    out << stats.to_json() << "\n";
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string socket_path;
    std::string stats_path;
    bool stdin_mode = false;
    qd::serve::DaemonOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            socket_path = argv[++i];
        } else if (arg == "--stdin") {
            stdin_mode = true;
        } else if (arg == "--workers" && i + 1 < argc) {
            if (!parse_count(argv[++i], options.workers)) {
                return usage();
            }
        } else if (arg == "--queue" && i + 1 < argc) {
            if (!parse_count(argv[++i], options.queue_capacity)) {
                return usage();
            }
        } else if (arg == "--max-client-jobs" && i + 1 < argc) {
            if (!parse_count(argv[++i], options.max_client_queued)) {
                return usage();
            }
        } else if (arg == "--max-client-shots" && i + 1 < argc) {
            if (!parse_count(argv[++i], options.max_client_shots)) {
                return usage();
            }
        } else if (arg == "--engine-threads" && i + 1 < argc) {
            if (!parse_count(argv[++i], options.engine_threads)) {
                return usage();
            }
        } else if (arg == "--stats-json" && i + 1 < argc) {
            stats_path = argv[++i];
        } else {
            return usage();
        }
    }
    if (stdin_mode == !socket_path.empty()) {
        return usage();  // exactly one of --stdin / --socket
    }

    if (stdin_mode) {
        const qd::serve::ServeStats stats =
            qd::serve::run_stdin_loop(std::cin, std::cout, options);
        int rc = 0;
        if (!stats_path.empty()) {
            rc = write_stats(stats_path, stats);
        }
        return stats.jobs_failed > 0 ? 1 : rc;
    }

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    qd::serve::Daemon daemon(options);
    try {
        daemon.listen(socket_path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    std::fprintf(stderr, "qd_served: listening on %s (%d workers)\n",
                 socket_path.c_str(), options.workers < 1 ? 1
                                                          : options.workers);

    while (g_signal.load() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "qd_served: draining (signal %d)\n",
                 g_signal.load());
    daemon.begin_shutdown();
    daemon.wait();

    const qd::serve::ServeStats stats = daemon.stats();
    std::fprintf(stderr, "qd_served: done — %s\n",
                 stats.to_json().c_str());
    if (!stats_path.empty()) {
        const int rc = write_stats(stats_path, stats);
        if (rc != 0) {
            return rc;
        }
    }
    return 0;
}

/**
 * @file bench_util.h
 * Shared helpers for the benchmark binaries: environment-variable knobs,
 * paper-reference annotations, the common BENCH_*.json writer, and the
 * instrumented-section scaffolding every gated bench uses for its
 * `--trace <file>` flag and obs_* report metrics.
 */
#ifndef BENCH_BENCH_UTIL_H
#define BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qdsim/exec/compile_service.h"
#include "qdsim/obs/counters.h"
#include "qdsim/obs/report.h"
#include "qdsim/obs/trace.h"

namespace qd::bench {

/** Integer knob from the environment, with default. */
inline int
env_int(const char* name, int fallback)
{
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') {
        return fallback;
    }
    return std::atoi(v);
}

/** Prints the standard bench banner: what paper artifact this regenerates. */
inline void
banner(const std::string& artifact, const std::string& note)
{
    std::string line(72, '=');
    std::printf("%s\n%s\n%s\n%s\n\n", line.c_str(), artifact.c_str(),
                note.c_str(), line.c_str());
}

/** Engine worker count the bench ran under: the hardware concurrency
 *  run_noisy_trials defaults to (kernel passes run on their worker, so
 *  this is the engine's whole parallelism). */
inline int
engine_threads()
{
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

/**
 * Flat JSON object writer for the BENCH_*.json artifacts: fields emit in
 * insertion order, one per line, matching the shape compare_bench.py
 * consumes (top-level object, scalar metrics). Every artifact records the
 * engine worker count it ran under as `threads`, so a comparison can tell
 * runs on different core counts apart.
 */
class JsonWriter {
  public:
    JsonWriter& str(const char* key, const std::string& value)
    {
        return raw(key, "\"" + value + "\"");
    }

    JsonWriter& num(const char* key, double value, const char* fmt = "%.6f")
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), fmt, value);
        return raw(key, buf);
    }

    JsonWriter& integer(const char* key, long long value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld", value);
        return raw(key, buf);
    }

    JsonWriter& boolean(const char* key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }

    /** Pre-formatted JSON value (nested objects, exponent formats). */
    JsonWriter& raw(const char* key, const std::string& json)
    {
        fields_.emplace_back(key, json);
        return *this;
    }

    /** Appends every obs_* metric of a SimReport. */
    JsonWriter& report(const obs::SimReport& rep)
    {
        for (const auto& [name, value] : rep.metrics()) {
            integer(name.c_str(), static_cast<long long>(value));
        }
        num("obs_cache_hit_rate", rep.plan_cache_hit_rate());
        return *this;
    }

    /** Writes the object and logs "wrote <path>"; false on I/O failure. */
    bool write(const char* path) const
    {
        std::FILE* out = std::fopen(path, "w");
        if (out == nullptr) {
            return false;
        }
        std::fprintf(out, "{\n  \"threads\": %d", engine_threads());
        for (const auto& [key, value] : fields_) {
            std::fprintf(out, ",\n  \"%s\": %s", key.c_str(),
                         value.c_str());
        }
        std::fputs("\n}\n", out);
        if (std::fclose(out) != 0) {
            return false;
        }
        std::printf("wrote %s\n", path);
        return true;
    }

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Parses `--trace <file>` / `--trace=<file>` from argv; empty if absent. */
inline std::string
trace_flag(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            return argv[i + 1];
        }
        if (std::strncmp(argv[i], "--trace=", 8) == 0) {
            return argv[i] + 8;
        }
    }
    return {};
}

/**
 * Instrumented section of a bench: resets the obs counters, enables them
 * (and span buffering when a --trace path was given), and on finish()
 * returns the SimReport, writes the Chrome trace, and restores the
 * enabled flag so the timed sections stay uninstrumented.
 */
class ObsSection {
  public:
    explicit ObsSection(std::string trace_path)
        : trace_path_(std::move(trace_path)), was_enabled_(obs::enabled())
    {
        // Instrumented sections measure cold compiles: drop any artifact
        // an earlier (timed, uninstrumented) section left in the global
        // compile-service cache so the obs_* compile metrics stay
        // comparable against pre-service baselines.
        exec::CompileService::global().clear();
        obs::reset_counters();
        obs::set_enabled(true);
        if (!trace_path_.empty()) {
            obs::trace_begin();
        }
    }

    ObsSection(const ObsSection&) = delete;
    ObsSection& operator=(const ObsSection&) = delete;

    /** Snapshot + trace flush; idempotent (later calls re-snapshot). */
    obs::SimReport finish()
    {
        const obs::SimReport rep = obs::report_snapshot();
        if (!trace_path_.empty()) {
            const auto events = obs::trace_end();
            if (obs::write_chrome_trace(events, trace_path_)) {
                std::printf("wrote %s (%zu trace events)\n",
                            trace_path_.c_str(), events.size());
            } else {
                std::fprintf(stderr, "failed to write trace %s\n",
                             trace_path_.c_str());
            }
            trace_path_.clear();
        }
        obs::set_enabled(was_enabled_);
        finished_ = true;
        return rep;
    }

    ~ObsSection()
    {
        if (!finished_) {
            finish();
        }
    }

  private:
    std::string trace_path_;
    bool was_enabled_ = false;
    bool finished_ = false;
};

}  // namespace qd::bench

#endif  // BENCH_BENCH_UTIL_H

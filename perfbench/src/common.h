/**
 * @file common.h
 * Shared pieces of the end-to-end benchmark: argument parsing, the
 * seeded generator, percentiles, the output checks, the metric table
 * and the run metadata.
 *
 * Everything here drives the library through its public headers only.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command line of one benchmark run. */
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Traces, daemon sockets and logs (relative to the checkout root). */
    std::string out_dir = ".bench_build/perfbench-out";
    /** Recorded Figure 11 reference fidelities. */
    std::string reference = "perfbench/fig11_reference.txt";
    /** Ungated paper-scale projection (see README.md). */
    bool paper_scale = false;
    /** Regenerates the reference table. */
    bool make_reference = false;
};

/** Parses argv; throws std::invalid_argument on a bad command line. */
Args parse_args(int argc, char** argv);

/** SplitMix64: the benchmark's own seeded generator, independent of the
 *  library's RNG so the inputs never change when the library does. */
class SplitMix64 {
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform integer in [0, n); n > 0. */
    std::uint64_t below(std::uint64_t n);
    /** Uniform real in [0, 1). */
    double uniform();

  private:
    std::uint64_t state_;
};

/** Mixes a seed with a stream index into an independent seed. */
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/** Percentile by linear interpolation between closest ranks
 *  (q in [0, 100]); NaN for an empty sample. */
double percentile(std::vector<double> values, double q);

/** Highest percentile of {99.9, 99, 95, 90, 50} that leaves at least ten
 *  samples beyond it (50 when none does). */
double reportable_percentile(std::size_t n);

/** Prints the size, minimum, lower quartile and median of a setup-time
 *  sample (seconds) as one progress line. */
void print_setup(const std::vector<double>& setup_s);

// ----------------------------------------------------------- checks ---

/** A recorded reference cell of Figure 11. */
struct ReferenceCell {
    std::string circuit;
    std::string model;
    int width = 0;
    double mean = 0;
    double std_error = 0;
    int trials = 0;
};

/** Reads the reference table; throws std::runtime_error when missing. */
std::vector<ReferenceCell> read_reference(const std::string& path);

const ReferenceCell* find_reference(const std::vector<ReferenceCell>& cells,
                                    const std::string& circuit,
                                    const std::string& model, int width);

/** Tolerance of a fidelity comparison: 4 combined standard errors,
 *  never below 0.01. */
double fidelity_tolerance(double se_a, double se_b);

/** Finite and in [0, 1], up to rounding. */
bool fidelity_in_range(double f);

/**
 * A measured cell of `trials` trajectories passes when its mean fidelity
 * is finite, lies in [0, 1] and is within fidelity_tolerance of the
 * reference mean. The cell's standard error is the larger of its own
 * estimate and the reference's per-trial spread scaled to `trials`: the
 * per-trial fidelities are heavy-tailed (rare damping or error events),
 * so a small sample that happens to miss them underestimates its error.
 */
bool fidelity_ok(double mean, double std_error, int trials,
                 const ReferenceCell& ref);

/**
 * Paper ordering of one model: `higher` must not fall below `lower` by
 * more than the tolerance of their combined standard errors.
 */
bool ordering_ok(double higher, double higher_se, double lower,
                 double lower_se);

/** Bitwise equality of two doubles (distinguishes -0.0, equal NaNs). */
bool same_bits(double a, double b);

/** A served job passes when it is ok and its value and standard error
 *  equal the in-process result's bit for bit. */
bool served_result_ok(const std::string& status, double value,
                      double std_error, const std::string& want_status,
                      double want_value, double want_std_error);

// ---------------------------------------------------------- metrics ---

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** Ordered metric table printed as the result's "metrics" object. */
class Metrics {
  public:
    void set(const std::string& name, double value, const std::string& unit);
    const std::vector<Metric>& all() const { return items_; }
    const Metric* find(const std::string& name) const;

  private:
    std::vector<Metric> items_;
};

/** The final result line: exactly correct/attempted/failed/metrics. */
std::string result_json(bool correct, long long attempted, long long failed,
                        const Metrics& metrics);

// --------------------------------------------------------- metadata ---

/** What a result was measured on, so comparisons are like with like. */
struct RunMeta {
    int nproc = 0;
    int threads = 0;  ///< engine threads the workload asks for
    long long llc_bytes = 0;
    std::string build_type;
    std::string commit;
    std::string source_digest;
    std::string omp_num_threads;
};

/** Last-level cache size in bytes (0 when unknown). */
long long llc_bytes();

/** Collects the metadata; `root` is the checkout root. */
RunMeta collect_meta(const std::string& root);

std::string meta_json(const RunMeta& meta, const std::string& workload,
                      std::uint64_t seed, bool trace);

/** Peak resident set of this process in MiB. */
double self_peak_rss_mb();

}  // namespace pb

#endif  // PERFBENCH_COMMON_H

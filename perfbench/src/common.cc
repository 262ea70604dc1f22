#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace pb {

namespace {

std::string
need_value(int argc, char** argv, int& i)
{
    if (i + 1 >= argc) {
        throw std::invalid_argument(std::string("missing value for ") +
                                    argv[i]);
    }
    return argv[++i];
}

std::string
json_number(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
trim(const std::string& s)
{
    const auto b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) {
        return "";
    }
    const auto e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

}  // namespace

Args
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload") {
            a.workload = need_value(argc, argv, i);
        } else if (arg == "--seed") {
            a.seed = std::stoull(need_value(argc, argv, i));
        } else if (arg == "--seconds") {
            a.seconds = std::stod(need_value(argc, argv, i));
        } else if (arg == "--trace") {
            a.trace = std::stoi(need_value(argc, argv, i)) != 0;
        } else if (arg == "--paper-scale") {
            a.paper_scale = true;
        } else if (arg == "--make-reference") {
            a.make_reference = true;
        } else {
            throw std::invalid_argument("unknown argument: " + arg);
        }
    }
    if (a.seconds <= 0) {
        throw std::invalid_argument("--seconds must be positive");
    }
    return a;
}

// -------------------------------------------------------- generator ---

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
SplitMix64::below(std::uint64_t n)
{
    // Rejection sampling keeps the draw exactly uniform.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
    std::uint64_t x = next();
    while (x >= limit) {
        x = next();
    }
    return x % n;
}

double
SplitMix64::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
derive_seed(std::uint64_t seed, std::uint64_t stream)
{
    SplitMix64 g(seed ^ (stream * 0xD1B54A32D192ED03ull));
    g.next();
    return g.next();
}

// ------------------------------------------------------ percentiles ---

double
percentile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return std::nan("");
    }
    std::sort(values.begin(), values.end());
    q = std::clamp(q, 0.0, 100.0);
    const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
reportable_percentile(std::size_t n)
{
    for (const double q : {99.9, 99.0, 95.0, 90.0}) {
        if (static_cast<double>(n) * (100.0 - q) / 100.0 >= 10.0) {
            return q;
        }
    }
    return 50.0;
}

void
print_setup(const std::vector<double>& setup_s)
{
    std::printf("setup samples %zu: min %.4f ms, p25 %.4f ms, p50 %.4f ms\n",
                setup_s.size(), percentile(setup_s, 0) * 1e3,
                percentile(setup_s, 25) * 1e3, percentile(setup_s, 50) * 1e3);
}

// ----------------------------------------------------------- checks ---

std::vector<ReferenceCell>
read_reference(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot read reference " + path);
    }
    std::vector<ReferenceCell> cells;
    std::string line;
    while (std::getline(in, line)) {
        line = trim(line);
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        ReferenceCell c;
        if (!(fields >> c.circuit >> c.model >> c.width >> c.mean >>
              c.std_error >> c.trials)) {
            throw std::runtime_error("bad reference line: " + line);
        }
        cells.push_back(c);
    }
    return cells;
}

const ReferenceCell*
find_reference(const std::vector<ReferenceCell>& cells,
               const std::string& circuit, const std::string& model,
               int width)
{
    for (const auto& c : cells) {
        if (c.circuit == circuit && c.model == model && c.width == width) {
            return &c;
        }
    }
    return nullptr;
}

double
fidelity_tolerance(double se_a, double se_b)
{
    return std::max(4.0 * std::sqrt(se_a * se_a + se_b * se_b), 0.01);
}

bool
fidelity_in_range(double f)
{
    // Overlaps of normalised states can round a few ulps past 1.
    return std::isfinite(f) && f >= -1e-9 && f <= 1 + 1e-9;
}

bool
fidelity_ok(double mean, double std_error, int trials,
            const ReferenceCell& ref)
{
    if (!fidelity_in_range(mean) || !std::isfinite(std_error) || trials < 1) {
        return false;
    }
    const double implied =
        ref.std_error * std::sqrt(static_cast<double>(ref.trials) / trials);
    return std::fabs(mean - ref.mean) <=
           fidelity_tolerance(std::max(std_error, implied), ref.std_error);
}

bool
ordering_ok(double higher, double higher_se, double lower, double lower_se)
{
    return lower - higher <= fidelity_tolerance(higher_se, lower_se);
}

bool
same_bits(double a, double b)
{
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, &a, sizeof(x));
    std::memcpy(&y, &b, sizeof(y));
    return x == y;
}

bool
served_result_ok(const std::string& status, double value, double std_error,
                 const std::string& want_status, double want_value,
                 double want_std_error)
{
    return status == "ok" && want_status == "ok" &&
           same_bits(value, want_value) && same_bits(std_error, want_std_error);
}

// ---------------------------------------------------------- metrics ---

void
Metrics::set(const std::string& name, double value, const std::string& unit)
{
    for (auto& m : items_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    items_.push_back({name, value, unit});
}

const Metric*
Metrics::find(const std::string& name) const
{
    for (const auto& m : items_) {
        if (m.name == name) {
            return &m;
        }
    }
    return nullptr;
}

std::string
result_json(bool correct, long long attempted, long long failed,
            const Metrics& metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& m : metrics.all()) {
        if (!first) {
            out += ", ";
        }
        first = false;
        out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

// --------------------------------------------------------- metadata ---

long long
llc_bytes()
{
    // glibc answers from CPUID on x86; the largest level present wins.
    long long best = 0;
    for (const int name : {_SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE,
                           _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL4_CACHE_SIZE}) {
        best = std::max(best, static_cast<long long>(sysconf(name)));
    }
    return best;
}

namespace {

std::string
read_first_line(const std::filesystem::path& p)
{
    std::ifstream in(p);
    std::string line;
    std::getline(in, line);
    return trim(line);
}

std::string
git_commit(const std::filesystem::path& root)
{
    const auto git = root / ".git";
    const std::string head = read_first_line(git / "HEAD");
    if (head.rfind("ref: ", 0) != 0) {
        return head.empty() ? "unknown" : head;
    }
    const std::string ref = head.substr(5);
    const std::string direct = read_first_line(git / ref);
    if (!direct.empty()) {
        return direct;
    }
    std::ifstream packed(git / "packed-refs");
    std::string line;
    while (std::getline(packed, line)) {
        const auto space = line.find(' ');
        if (space != std::string::npos && line.substr(space + 1) == ref) {
            return line.substr(0, space);
        }
    }
    return "unknown";
}

/** FNV-1a over the relative paths and bytes of every library and tool
 *  source, so a result names the exact code it measured even in a
 *  checkout that is not a git repository. */
std::string
source_digest(const std::filesystem::path& root)
{
    std::vector<std::filesystem::path> files;
    for (const char* sub : {"src", "tools"}) {
        std::error_code ec;
        const auto dir = root / sub;
        if (!std::filesystem::is_directory(dir, ec)) {
            continue;
        }
        for (const auto& e :
             std::filesystem::recursive_directory_iterator(dir, ec)) {
            if (e.is_regular_file()) {
                files.push_back(e.path());
            }
        }
    }
    std::sort(files.begin(), files.end());
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const char* data, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= static_cast<unsigned char>(data[i]);
            h *= 0x100000001b3ull;
        }
    };
    for (const auto& f : files) {
        const std::string rel =
            std::filesystem::relative(f, root).generic_string();
        mix(rel.data(), rel.size());
        std::ifstream in(f, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        const std::string s = bytes.str();
        mix(s.data(), s.size());
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

}  // namespace

RunMeta
collect_meta(const std::string& root)
{
    RunMeta m;
    m.nproc = static_cast<int>(std::thread::hardware_concurrency());
    m.threads = m.nproc;
    m.llc_bytes = llc_bytes();
#ifdef PB_BUILD_TYPE
    m.build_type = PB_BUILD_TYPE;
#else
    m.build_type = "unknown";
#endif
    m.commit = git_commit(root);
    m.source_digest = source_digest(root);
    const char* omp = std::getenv("OMP_NUM_THREADS");
    m.omp_num_threads = omp == nullptr ? "" : omp;
    return m;
}

std::string
meta_json(const RunMeta& meta, const std::string& workload,
          std::uint64_t seed, bool trace)
{
    std::ostringstream out;
    out << "{\"meta\": {\"workload\": \"" << workload << "\", \"seed\": "
        << seed << ", \"trace\": " << (trace ? 1 : 0)
        << ", \"threads\": " << meta.threads << ", \"nproc\": " << meta.nproc
        << ", \"llc_bytes\": " << meta.llc_bytes << ", \"build_type\": \""
        << meta.build_type << "\", \"commit\": \"" << meta.commit
        << "\", \"source_digest\": \"" << meta.source_digest
        << "\", \"omp_num_threads\": \"" << meta.omp_num_threads << "\"}}";
    return out.str();
}

double
self_peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace pb

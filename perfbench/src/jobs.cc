#include "jobs.h"

#include <algorithm>
#include <stdexcept>

#include "constructions/gen_toffoli.h"
#include "qdsim/gate_library.h"
#include "qdsim/ir/ir.h"

namespace pb {

const std::vector<JobShape>&
job_shapes()
{
    // 12 state jobs (QUTRIT width 8-10), 14 trajectory jobs (width 5-7,
    // 64-200 shots), 6 density jobs (width 3-4: a width-5 density job
    // costs over a second, which would swamp the mix).
    static const std::vector<JobShape> shapes = {
        {"state", true, 8, 1, ""},
        {"state", true, 8, 1, ""},
        {"state", true, 8, 1, ""},
        {"state", true, 8, 1, ""},
        {"state", true, 9, 1, ""},
        {"state", true, 9, 1, ""},
        {"state", true, 9, 1, ""},
        {"state", true, 9, 1, ""},
        {"state", true, 10, 1, ""},
        {"state", true, 10, 1, ""},
        {"state", true, 10, 1, ""},
        {"state", true, 10, 1, ""},
        {"trajectory", true, 5, 200, "SC"},
        {"trajectory", true, 5, 64, "SC+T1"},
        {"trajectory", true, 6, 128, "SC+GATES"},
        {"trajectory", true, 6, 200, "SC+T1+GATES"},
        {"trajectory", true, 7, 64, "SC"},
        {"trajectory", true, 7, 128, "DRESSED_QUTRIT"},
        {"trajectory", true, 5, 128, "DRESSED_QUTRIT"},
        {"trajectory", true, 6, 64, "SC+T1"},
        {"trajectory", false, 5, 200, "SC"},
        {"trajectory", false, 6, 128, "TI_QUBIT"},
        {"trajectory", false, 7, 64, "SC+T1+GATES"},
        {"trajectory", false, 6, 200, "SC+GATES"},
        {"trajectory", false, 7, 128, "SC+T1"},
        {"trajectory", false, 5, 64, "TI_QUBIT"},
        {"density", true, 3, 1, "SC"},
        {"density", true, 3, 1, "SC+T1"},
        {"density", true, 3, 1, "DRESSED_QUTRIT"},
        {"density", true, 3, 1, "SC+GATES"},
        {"density", true, 4, 1, "SC"},
        {"density", true, 4, 1, "SC+T1+GATES"},
    };
    return shapes;
}

JobSet::JobSet(std::uint64_t seed)
{
    const auto t0 = Clock::now();
    for (const auto& s : job_shapes()) {
        const auto key = std::make_pair(s.qutrit, s.width);
        if (base_.count(key) == 0) {
            const auto method = s.qutrit
                                    ? qd::ctor::Method::kQutrit
                                    : qd::ctor::Method::kQubitDirtyAncilla;
            base_[key] =
                qd::ctor::build_gen_toffoli(method, s.width - 1).circuit;
        }
    }
    build_s_ = seconds_since(t0);
    SplitMix64 rng(derive_seed(seed, 0));
    for (std::size_t i = 0; i < job_shapes().size(); ++i) {
        const double phi = 0.1 + 3.0 * rng.uniform();
        hot_.push_back(std::make_shared<const std::string>(make_qdj(
            static_cast<int>(i), phi, rng.next() >> 32,
            "hot-" + std::to_string(i))));
    }
}

std::string
JobSet::make_qdj(int shape, double phi, std::uint64_t job_seed,
                 const std::string& name) const
{
    const JobShape& s = job_shapes().at(static_cast<std::size_t>(shape));
    qd::ir::Job job;
    job.name = name;
    job.engine = s.engine;
    job.shots = s.shots;
    job.seed = job_seed;
    job.noise = s.noise;
    job.circuit = base_.at(std::make_pair(s.qutrit, s.width));
    const int target = s.width - 1;
    if (s.qutrit) {
        job.circuit.append(qd::gates::phase_level(3, 1, phi), {target});
    } else {
        job.circuit.append(qd::gates::P(phi), {target});
    }
    return qd::ir::to_qdj(job);
}

const qd::Circuit&
JobSet::largest_state_circuit() const
{
    int width = 0;
    for (const auto& s : job_shapes()) {
        if (std::string(s.engine) == "state") {
            width = std::max(width, s.width);
        }
    }
    return base_.at(std::make_pair(true, width));
}

JobStream::JobStream(const JobSet& set, std::uint64_t seed, int connection)
    : set_(set),
      rng_(derive_seed(seed, static_cast<std::uint64_t>(connection) + 1)),
      connection_(connection)
{
}

int
JobStream::deal(std::vector<int>& deck, std::size_t& pos, int size)
{
    if (pos >= deck.size()) {
        deck.resize(static_cast<std::size_t>(size));
        for (int i = 0; i < size; ++i) {
            deck[static_cast<std::size_t>(i)] = i;
        }
        for (std::size_t i = deck.size(); i > 1; --i) {
            std::swap(deck[i - 1], deck[rng_.below(i)]);
        }
        pos = 0;
    }
    return deck[pos++];
}

GeneratedJob
JobStream::next()
{
    const int n_shapes = static_cast<int>(job_shapes().size());
    // Block slots below kColdPerBlock are the cold ones.
    const bool cold = deal(block_deck_, block_pos_, kBlock) < kColdPerBlock;
    GeneratedJob job;
    if (cold) {
        job.shape = deal(cold_deck_, cold_pos_, n_shapes);
        job.name = "cold-" + std::to_string(connection_) + "-" +
                   std::to_string(count_);
        const double phi = 0.1 + 3.0 * rng_.uniform();
        job.qdj = std::make_shared<const std::string>(
            set_.make_qdj(job.shape, phi, rng_.next() >> 32, job.name));
    } else {
        job.shape = deal(hot_deck_, hot_pos_, n_shapes);
        job.hot = true;
        job.name = "hot-" + std::to_string(job.shape);
        job.qdj = set_.hot().at(static_cast<std::size_t>(job.shape));
    }
    ++count_;
    return job;
}

}  // namespace pb

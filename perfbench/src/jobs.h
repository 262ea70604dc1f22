/**
 * @file jobs.h
 * The seeded job-stream generator of the serve-mixed workload.
 *
 * Traffic is repeated-submission characterisation work: 32 hot job
 * documents (one per JobShape) are resubmitted verbatim, and a quarter
 * of the stream is never-seen circuits (a hot shape plus a phase gate
 * with a fresh angle), each of which costs a cold verify and compile.
 * Shapes are dealt from shuffled decks, so every seed offers the same
 * mix of job sizes and only the order, angles and RNG seeds differ.
 */
#ifndef PERFBENCH_JOBS_H
#define PERFBENCH_JOBS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "qdsim/circuit.h"

namespace pb {

/** One job size class: engine, construction, width, shots, noise. */
struct JobShape {
    const char* engine;  ///< "state" | "trajectory" | "density"
    bool qutrit;         ///< QUTRIT construction, else QUBIT+ANCILLA
    int width;
    int shots;           ///< trajectory trials (ignored by other engines)
    const char* noise;   ///< preset name ("" for the state engine)
};

/** The 32 shapes; the hot set holds one job of each. */
const std::vector<JobShape>& job_shapes();

/** Share of the stream that is never-seen circuits: kColdPerBlock of
 *  every kBlock jobs. */
inline constexpr int kBlock = 20;
inline constexpr int kColdPerBlock = 5;

/** One generated submission. */
struct GeneratedJob {
    std::string name;
    int shape = 0;
    bool hot = false;
    std::shared_ptr<const std::string> qdj;  ///< shared by hot resubmits
};

/** Base circuits plus the seed's hot job documents. */
class JobSet {
  public:
    explicit JobSet(std::uint64_t seed);

    const std::vector<std::shared_ptr<const std::string>>& hot() const {
        return hot_;
    }

    /** .qdj text of `shape` with a phase gate of angle `phi` on the
     *  target, so the circuit hash is new for every fresh angle. */
    std::string make_qdj(int shape, double phi, std::uint64_t job_seed,
                         const std::string& name) const;

    /** Seconds spent building the construction circuits. */
    double build_seconds() const { return build_s_; }

    /** Largest state-job circuit (the state-pass replay target). */
    const qd::Circuit& largest_state_circuit() const;

  private:
    std::map<std::pair<bool, int>, qd::Circuit> base_;
    std::vector<std::shared_ptr<const std::string>> hot_;
    double build_s_ = 0;
};

/** One connection's deterministic stream over a JobSet. */
class JobStream {
  public:
    JobStream(const JobSet& set, std::uint64_t seed, int connection);
    GeneratedJob next();

  private:
    int deal(std::vector<int>& deck, std::size_t& pos, int size);

    const JobSet& set_;
    SplitMix64 rng_;
    int connection_;
    long long count_ = 0;
    std::vector<int> hot_deck_;
    std::vector<int> cold_deck_;
    std::vector<int> block_deck_;
    std::size_t hot_pos_ = 0;
    std::size_t cold_pos_ = 0;
    std::size_t block_pos_ = 0;
};

}  // namespace pb

#endif  // PERFBENCH_JOBS_H

/**
 * @file trajectory_testing.h
 * Test and benchmark hook of the trajectory engine; not part of its API.
 */
#ifndef NOISE_TRAJECTORY_TESTING_H
#define NOISE_TRAJECTORY_TESTING_H

namespace qd::noise::testing {

/**
 * While at least one DenseSupportScope is alive, the trajectory engine
 * builds every batch dense (exec::Support::kDense) instead of tracking
 * the support of qubit-subspace inputs: the reference a tracked run is
 * compared against in parity tests and benchmarks. The switch is
 * process-wide and read once per batch, so create and destroy a scope
 * only while no trajectory run is in flight: a run that straddles it
 * walks some batches each way.
 */
class DenseSupportScope {
  public:
    DenseSupportScope();
    ~DenseSupportScope();
    DenseSupportScope(const DenseSupportScope&) = delete;
    DenseSupportScope& operator=(const DenseSupportScope&) = delete;
};

}  // namespace qd::noise::testing

#endif  // NOISE_TRAJECTORY_TESTING_H

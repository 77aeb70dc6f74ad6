// The workload runners behind RunWorkload (harness.h).
#ifndef IGQBENCH_WORKLOADS_H_
#define IGQBENCH_WORKLOADS_H_

#include "harness.h"

namespace igqbench {

/// The three single-client workloads share one runner.
enum class SequentialKind { kSubMiss, kSubHot, kSuperScreen };

/// One closed-loop client over a QueryEngine with a verify pool of
/// AvailableCpus() workers, then a short mutation phase on the same engine.
RunReport RunSequential(const RunConfig& config, SequentialKind kind);

/// Three closed-loop client streams over a ConcurrentQueryEngine, every 20th
/// operation of each stream a mutation, with a WAL attached.
RunReport RunServeMixed(const RunConfig& config);

}  // namespace igqbench

#endif  // IGQBENCH_WORKLOADS_H_

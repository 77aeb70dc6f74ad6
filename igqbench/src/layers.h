// Per-layer metrics of a traced run, derived from its spans plus what the
// engine reports through its public getters.
#ifndef IGQBENCH_LAYERS_H_
#define IGQBENCH_LAYERS_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "igq/engine.h"
#include "report.h"
#include "trace.h"

namespace igqbench {

/// Request ids at or above this belong to mutations; below it, to queries.
inline constexpr int64_t kMutationIdBase = int64_t{1} << 40;

/// What the traced run knows about one measured query besides its spans.
struct QuerySample {
  int64_t id = 0;
  igq::QueryStats stats;
  /// Growth of the cache's maintenance_micros() across the call: window
  /// flushes the query paid for.
  int64_t maintenance_micros = 0;
};

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  /// Spans of the measured phase, the mutation phase and the feature pass.
  std::vector<Span> spans;
  /// Durations of every Method::Build span (one per set-up repetition).
  std::vector<double> build_seconds;
  std::vector<QuerySample> queries;
  size_t mutations = 0;
  double throughput_qps = 0;
  double host_only_p50_us = 0;
  double states_per_test = 0;
  size_t cache_entries = 0;
  size_t cache_bytes = 0;
  uint64_t coalesced_hits = 0;
  size_t dark_entries = 0;
  uint64_t non_completed = 0;
};

/// One request's span against its child spans: `children_ns` is the length
/// of the union of the child intervals (children on parallel verify workers
/// overlap, so a plain sum would exceed the request), and `self_ns` is the
/// rest. By construction span_ns == children_ns + self_ns.
struct Reconciled {
  int64_t span_ns = 0;
  int64_t children_ns = 0;
  int64_t self_ns = 0;
};
Reconciled Reconcile(const Span& root,
                     std::vector<std::pair<int64_t, int64_t>> children);

/// isomorphism.states_per_test: mean VF2 search states (MatchStats) over an
/// evenly spaced sample of at most 1000 of the traced (query, candidate)
/// verify pairs, replayed through Vf2Matcher::Contains. `query_of` maps a
/// verify span's request id to its query graph; `graphs` are the dataset
/// graphs the candidate ids index.
double StatesPerTest(const std::vector<Span>& spans,
                     const std::function<const igq::Graph&(int64_t)>& query_of,
                     const std::vector<igq::Graph>& graphs,
                     igq::QueryDirection direction);

/// Every per-layer metric, in BENCHMARK.json order.
std::vector<Metric> LayerMetrics(const LayerInputs& inputs);

}  // namespace igqbench

#endif  // IGQBENCH_LAYERS_H_

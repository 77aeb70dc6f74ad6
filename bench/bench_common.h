// Shared harness for the per-figure benchmark binaries: flag parsing,
// dataset/method construction, workload execution with the paper's
// warm-up-then-measure protocol (§7.1), and speedup reporting.
#ifndef IGQ_BENCH_BENCH_COMMON_H_
#define IGQ_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datasets/profiles.h"
#include "igq/engine.h"
#include "methods/method.h"
#include "workload/query_generator.h"

namespace igq {
namespace bench {

/// "--key=value" command-line flags with typed getters.
class Flags {
 public:
  Flags(int argc, char** argv);

  double GetDouble(const std::string& key, double fallback) const;
  size_t GetSize(const std::string& key, size_t fallback) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  bool Has(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Aggregated measurements over the post-warm-up segment of a run.
struct RunResult {
  uint64_t queries = 0;
  uint64_t iso_tests = 0;           // verification tests against the dataset
  uint64_t probe_iso_tests = 0;     // tests against cached query graphs
  uint64_t baseline_tests = 0;      // Σ |CS(q)| before iGQ pruning
  uint64_t candidates = 0;          // Σ |CS_igq(q)| actually verified
  uint64_t answers = 0;
  /// Queries resolved by the canonical-key exact-hit fast path (an
  /// isomorphic earlier query's answer returned with zero isomorphism
  /// tests), and their total end-to-end latency — the measured hit cost
  /// reported next to the fig09/fig15 speedups.
  uint64_t exact_hits = 0;
  int64_t exact_hit_micros = 0;
  int64_t total_micros = 0;
  int64_t filter_micros = 0;
  int64_t probe_micros = 0;
  int64_t verify_micros = 0;
  /// Window-flush maintenance charged to the measured queries
  /// (QueryStats::maintenance_micros; part of total_micros).
  int64_t maintenance_micros = 0;
  /// Per-query (size-class, iso-tests, total-micros, initial-candidates)
  /// tuples for the per-group figures.
  struct PerQuery {
    size_t size_class;
    uint64_t iso_tests;
    int64_t micros;
    uint64_t initial_candidates;
  };
  std::vector<PerQuery> per_query;
};

/// Runs `workload` through `engine` (either query direction); the first
/// `warmup` queries only populate the cache and are excluded from the
/// aggregates.
RunResult RunWorkload(QueryEngine& engine,
                      const std::vector<WorkloadQuery>& workload,
                      size_t warmup);

/// Builds a dataset by profile name, scaled; prints a one-line summary.
GraphDatabase BuildDataset(const std::string& name, double scale,
                           uint64_t seed);

/// Creates and builds a registered method; prints build time.
std::unique_ptr<Method> BuildMethod(
    const std::string& name, const GraphDatabase& db,
    QueryDirection direction = QueryDirection::kSubgraph);

/// baseline/improved, guarding division by zero.
double Speedup(double baseline, double improved);

/// Standard bench preamble: prints the figure id, the paper's setup, and
/// this run's parameters.
void PrintHeader(const std::string& figure, const std::string& description);

/// Machine-readable bench output, opted into with `--json[=path]` (default
/// path: BENCH_filtering.json in the working directory). Collects flat
/// key→value rows and writes `{"bench": ..., "rows": [...]}` when
/// destroyed; values that parse as numbers are emitted as JSON numbers.
/// Disabled (every call a no-op) when the flag is absent, so benches can
/// call AddRow unconditionally.
class BenchJson {
 public:
  BenchJson(const Flags& flags, const std::string& bench_name);
  ~BenchJson();

  bool enabled() const { return !path_.empty(); }
  void AddRow(std::vector<std::pair<std::string, std::string>> fields);

 private:
  std::string path_;
  std::string bench_name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

}  // namespace bench
}  // namespace igq

#endif  // IGQ_BENCH_BENCH_COMMON_H_

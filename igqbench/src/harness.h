// The benchmark's workloads and the pieces they share: configuration, query
// streams generated from the seed, the iGQ-off oracle, answer fingerprints,
// and process-level measurements.
#ifndef IGQBENCH_HARNESS_H_
#define IGQBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "durability/wal.h"
#include "graph/graph.h"
#include "methods/method.h"
#include "report.h"
#include "trace.h"

namespace igqbench {

/// Cache geometry used by every workload (§7: C = 500, W = 100).
inline constexpr size_t kCacheCapacity = 500;
inline constexpr size_t kWindowSize = 100;
/// Set-up is repeated at least kSetupRepeats times, and until the repeats
/// add up to kSetupSeconds, and the median is reported. The first one or
/// two set-ups of a process fault in fresh pages and run up to twice as
/// slow, so a short series would put its median in either group.
inline constexpr size_t kSetupRepeats = 7;
inline constexpr double kSetupSeconds = 4.0;
/// Seed of the datasets. They are fixed inputs, like the paper's AIDS and
/// PDBS files: --seed varies the query streams and the churn choices, not
/// the graphs queried. (With per-seed datasets, which graph happens to be
/// the Zipf-popular one moved sub-hot's median by 30-50% between seeds.)
inline constexpr uint64_t kDatasetSeed = 2016;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the working tree) for the WAL and the span dump.
  std::string out_dir = ".bench_out";
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (percentiles behind
  /// each tail, first wrong answers).
  std::vector<std::string> notes;
};

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end. Never throws for a wrong answer: it sets
/// `correct` to false and says why in `notes`.
RunReport RunWorkload(const RunConfig& config);

// ---- Shared pieces (used by the workload runners and the tests) ----------

/// CPUs this process may run on (sched_getaffinity), at least 1.
size_t AvailableCpus();

/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

/// Seed of sub-stream (a, b) of `seed`, derived with igq::SplitMix64.
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Order-sensitive fingerprint of a sorted id list.
uint64_t AnswerHash(const std::vector<igq::GraphId>& ids);

/// Microseconds elapsed on the steady clock since `start`.
double MicrosSince(std::chrono::steady_clock::time_point start);

/// One chunk (QueryStream::kChunk queries) of the paper's BFS query
/// generator (§7.1) over `dataset`: `distribution` is "uni-uni",
/// "zipf-zipf", etc.
std::vector<igq::Graph> GenerateQueries(const std::vector<igq::Graph>& dataset,
                                        const std::string& distribution,
                                        double alpha, uint64_t seed);

/// An unbounded query stream materialized in fixed-size chunks on demand;
/// chunk `c` is `generate(c)`, so the stream is a pure function of the
/// generator (and therefore of the seed). Chunks are kept so the oracle can
/// revisit every query after the timed phase.
class QueryStream {
 public:
  static constexpr size_t kChunk = 2048;

  explicit QueryStream(std::function<std::vector<igq::Graph>(uint64_t)> generate)
      : generate_(std::move(generate)) {}

  const igq::Graph& Get(size_t index);

 private:
  std::function<std::vector<igq::Graph>(uint64_t)> generate_;
  std::deque<std::vector<igq::Graph>> chunks_;
};

/// The ids a workload churns, split into slices, each mutated by one client
/// only: ids in [begin, end) at first, then the ids their payloads are
/// re-added under. The slice logs every applied mutation, so its state at
/// any of its client's queries is known exactly: the first version()
/// events applied to the initial ids.
class ChurnSlice {
 public:
  /// One applied mutation: `id` was removed, or was added carrying the
  /// graph of original id `payload`.
  struct Event {
    bool added = false;
    igq::GraphId id = 0;
    igq::GraphId payload = 0;
  };

  ChurnSlice(igq::GraphId begin, igq::GraphId end, uint64_t seed);

  igq::GraphId begin() const { return begin_; }
  igq::GraphId end() const { return end_; }
  /// True when no id of the slice is live (only after failed re-adds).
  bool empty() const { return live_.empty(); }
  /// A random live id of the slice, to be removed next. Requires !empty().
  igq::GraphId PickRandom();
  /// True between a removal and the re-add of its payload.
  bool pending() const { return pending_; }
  /// Original id whose graph the last removed id carried: the payload the
  /// next re-add puts back. Requires pending().
  igq::GraphId pending_payload() const { return pending_payload_; }
  /// Log an applied removal of live `id`, or an applied re-add of the
  /// pending payload under `id`.
  void Removed(igq::GraphId id);
  void Readded(igq::GraphId id);
  /// Mutations applied so far.
  size_t version() const { return events_.size(); }
  const std::vector<Event>& events() const { return events_; }

 private:
  igq::GraphId begin_;
  igq::GraphId end_;
  igq::Rng rng_;
  /// (current id, original id whose graph it carries).
  std::vector<std::pair<igq::GraphId, igq::GraphId>> live_;
  igq::GraphId pending_payload_ = 0;
  bool pending_ = false;
  std::vector<Event> events_;
};

/// Dataset-wide split used by every workload: the first 90% of the original
/// ids are never churned; the rest form the churn slices.
igq::GraphId StableLimit(size_t original_graphs);

/// One answered query, kept for the correctness check after the timed phase.
/// Ids below the churn slices (never removed or re-added) are kept as a
/// fingerprint; the churned ids are kept whole, with the version of the
/// asking client's own slice when the query ran.
struct Answered {
  const igq::Graph* query = nullptr;  // owned by the workload's QueryStream
  uint64_t stable_hash = 0;
  std::vector<igq::GraphId> churned;
  size_t slice = 0;
  size_t version = 0;
};
Answered RecordAnswer(const igq::Graph& query,
                      const std::vector<igq::GraphId>& answer,
                      igq::GraphId stable_limit, size_t slice, size_t version);

/// The correctness gate, run outside every timer. `oracle` is a host method
/// Build()-ed on the original dataset, used with iGQ off; every churned id
/// carries an original graph, so the oracle decides the relation for it too.
/// An answer is right when
///   - its ids below `stable_limit` equal the oracle's;
///   - on the asking client's own slice, at the slice version the answer
///     was recorded with, it holds exactly the live ids whose payload the
///     oracle returns (no removed id, no missing re-added id);
///   - every id of another client's slice (whose state raced the query)
///     belongs to that slice and carries a payload the oracle returns.
/// Up to three wrong answers are described in `notes`.
struct CheckResult {
  size_t checked = 0;
  size_t wrong = 0;
  /// Wrong answers whose stable part differs from the oracle's.
  size_t stable_mismatches = 0;
  /// Returned churned ids that were not live or do not stand in the
  /// relation, and live related ids of the own slice that were left out.
  size_t extra_ids = 0;
  size_t missing_ids = 0;
  /// Median single-threaded host-method time per distinct query.
  double host_only_p50_us = 0;
};
CheckResult CheckAnswers(const igq::Method& oracle,
                         const std::vector<Answered>& answers,
                         igq::GraphId stable_limit,
                         const std::vector<const ChurnSlice*>& slices,
                         std::vector<std::string>* notes);

/// Host-method answers with iGQ off, for a set of distinct queries: Prepare,
/// Filter, then Verify on every candidate — computed on `threads` threads,
/// outside every benchmark timer. `micros[i]` is query i's single-threaded
/// host time.
struct OracleResult {
  std::vector<std::vector<igq::GraphId>> answers;
  std::vector<double> micros;
};
OracleResult RunOracle(const igq::Method& host,
                       const std::vector<const igq::Graph*>& queries,
                       size_t threads);

/// Traced runs: the durations, in seconds, of the Method::Build spans
/// recorded so far (one per set-up repetition); then forgets every span, so
/// the measured phase starts from an empty trace.
std::vector<double> TakeBuildSeconds(Tracer& tracer);

/// Traced runs: times GraphCanonicalCode and `extract` (the cache's path
/// feature extraction) directly on each of `queries`, as spans of their own.
void TimeFeatures(Tracer& tracer, const std::vector<const igq::Graph*>& queries,
                  const std::function<void(const igq::Graph&)>& extract);

/// The write-ahead log every workload's mutations go through: batched:32 on
/// the real file system, in a fresh directory under the run's out_dir,
/// behind a TracingFileSystem when `tracer` is set. The directory is removed
/// when the object goes; detach it from the engine first.
class BenchWal {
 public:
  BenchWal(const RunConfig& config, Tracer* tracer);
  ~BenchWal();

  BenchWal(const BenchWal&) = delete;
  BenchWal& operator=(const BenchWal&) = delete;

  /// Opens the first segment at the database's current mutation epoch.
  bool Open(uint64_t epoch) { return writer_.Open(epoch, 1); }
  igq::durability::WalWriter& writer() { return writer_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  TracingFileSystem traced_fs_;
  igq::durability::WalWriter writer_;
};

/// Median wall time of calls of `build`, in seconds: at least kSetupRepeats
/// calls, and more until their times add up to kSetupSeconds. `teardown`
/// runs untimed before every call after the first, so each build starts
/// from nothing and at most one copy of the fixture is alive.
double TimeSetup(const std::function<void()>& teardown,
                 const std::function<void()>& build);

}  // namespace igqbench

#endif  // IGQBENCH_HARNESS_H_

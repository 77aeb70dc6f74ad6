// The iGQ query engine (§4.2, §4.4, §6.3): wraps a host Method with the
// query cache, prunes its candidate set using formulas (3)-(5), applies the
// §4.3 shortcut optimizations, runs the verification stage on a persistent
// worker pool, assembles the final answer, and maintains the cache.
//
// One engine serves both query directions. The method's Direction() decides
// which cache probe sets act as guaranteed-answer sources and which as
// intersection pruners — the §4.4 union/intersection role inversion is an
// internal detail, not a separate class.
#ifndef IGQ_IGQ_ENGINE_H_
#define IGQ_IGQ_ENGINE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "igq/cache.h"
#include "igq/mutation.h"
#include "igq/options.h"
#include "igq/verify_pool.h"
#include "methods/method.h"
#include "serving/budget.h"
#include "snapshot/engine_snapshot.h"

namespace igq {

namespace durability {
class WalWriter;
}  // namespace durability

/// How a query was resolved (§4.3 shortcuts).
enum class ShortcutKind {
  kNone,                // full pipeline ran
  kExactHit,            // identical previous query: cached answer returned
  kEmptyAnswerPruning,  // a cached relation proved the answer empty
  /// Concurrent engine only: this stream missed on a canonical key another
  /// stream was already computing, parked on the in-flight record, and
  /// returned the leader's published answer (singleflight coalescing).
  kCoalescedHit
};

/// Per-query measurements, the raw material of every figure in §7.
struct QueryStats {
  int64_t filter_micros = 0;   // host-method filtering stage
  int64_t probe_micros = 0;    // iGQ index probing + candidate pruning
  int64_t verify_micros = 0;   // verification stage
  /// Window-flush maintenance charged to this query: the flush its cache
  /// insert ran (0 for every query that did not fill a window).
  int64_t maintenance_micros = 0;
  /// End-to-end, including maintenance_micros — the flush runs inside the
  /// query's insert, on the query path.
  int64_t total_micros = 0;

  size_t candidates_initial = 0;  // |CS(g)| from the host method
  size_t candidates_final = 0;    // |CS_igq(g)| actually verified
  size_t iso_tests = 0;           // verification tests against dataset graphs
  size_t probe_iso_tests = 0;     // tests against cached (small) query graphs
  size_t answer_size = 0;
  size_t isub_hits = 0;    // |Isub(g)|
  size_t isuper_hits = 0;  // |Isuper(g)|
  ShortcutKind shortcut = ShortcutKind::kNone;
};

/// Knobs for ProcessBatch.
struct BatchOptions {
  /// Fill BatchResult::stats for every query (on by default). When false
  /// the engine skips stats gathering entirely — no per-stage clock reads
  /// and no counter writes anywhere on the query path, not merely a
  /// discarded copy — so throughput-oriented batch serving pays nothing
  /// for the measurement plumbing; every BatchResult::stats stays
  /// value-initialized. Answers and cache maintenance are unaffected.
  bool collect_stats = true;

  /// Per-query budget applied to every query of the batch (serving/budget.h).
  /// Default-constructed (all zeros) with no `cancel` = unlimited: the
  /// pipeline's checks stay inert and the cache trajectory is bit-identical
  /// to per-query Process calls. Zero fields fall back to the engine's
  /// IgqOptions::ServingOptions defaults when the budget is otherwise
  /// active.
  serving::QueryBudget budget;

  /// Optional external cancellation flag shared by the whole batch; may be
  /// flipped from any thread. Null = not cancellable. Not owned.
  const serving::CancelSource* cancel = nullptr;
};

/// Per-query outcome of a batch run.
struct BatchResult {
  std::vector<GraphId> answer;
  QueryStats stats;
  /// Lifecycle disposition (always kCompleted for an unlimited batch).
  serving::QueryOutcome outcome;
};

/// Result of one budgeted query (ProcessWithBudget): `answer` is the full
/// answer (kCompleted), a cache-composed partial answer flagged by the
/// outcome (kPartial — a true subset of the full answer), or empty for the
/// rejection outcomes.
struct QueryResult {
  std::vector<GraphId> answer;
  serving::QueryOutcome outcome;
  QueryStats stats;
};

/// Arms `control` for `request`: budget fields left at zero fall back to
/// `defaults` (the engine's IgqOptions::ServingOptions).
void ArmQueryControl(const serving::QueryRequest& request,
                     const IgqOptions::ServingOptions& defaults,
                     serving::QueryControl& control);

/// iGQ on top of any host Method, subgraph or supergraph.
///
/// Thread-safety: an engine is a single logical query stream. Process,
/// ProcessBatch, and the snapshot calls must not run concurrently with
/// each other on the same engine — parallelism lives *inside* a query
/// (the verification pool, which requires Method::Verify to be
/// thread-safe). To serve many concurrent streams over one *shared* cache,
/// use ConcurrentQueryEngine (concurrent_engine.h); giving each stream its
/// own QueryEngine also works but keeps the caches private, so streams
/// never share hits. See docs/CONCURRENCY.md.
class QueryEngine {
 public:
  /// `db` and `method` must outlive the engine; `method` must be
  /// Build()-ed on `db` — or restored via LoadSnapshot() — before the
  /// first query. `options` is validated (see ValidatedIgqOptions); the
  /// clamped values are visible through options().
  QueryEngine(const GraphDatabase& db, Method* method,
              const IgqOptions& options);
  ~QueryEngine();

  /// Executes one query end-to-end and returns the ids of all dataset
  /// graphs related to `query` in the method's direction (sorted). Fills
  /// `stats` if non-null; a null `stats` skips stats collection entirely
  /// (no per-stage clock reads, no counter writes), not just the copy-out.
  /// Runs the same pipeline as ProcessWithBudget under an unarmed control,
  /// whose checks never fire.
  std::vector<GraphId> Process(const Graph& query, QueryStats* stats = nullptr);

  /// Budgeted execution (serving/budget.h): runs the same pipeline as
  /// Process under `request`'s deadline/caps/cancellation and returns the
  /// typed outcome. Budget fields left at zero fall back to the engine's
  /// IgqOptions::ServingOptions defaults; a fully unlimited request leaves
  /// every check inert, so its cache trajectory is bit-identical to
  /// Process. A query stopped mid-pipeline commits NOTHING —
  /// no query-counter tick, no §5.1 credits, no insertion — so the cache
  /// state stays bit-identical to an engine that never saw the query; a
  /// stop during or after the prune stage degrades to a cache-composed
  /// partial answer (§4.3 guaranteed set ∪ verified-so-far, flagged
  /// kPartial, never cached) when ServingOptions::degrade_to_partial is on.
  /// `collect_stats` fills QueryResult::stats (same contract as Process's
  /// null-stats mode when false).
  QueryResult ProcessWithBudget(const Graph& query,
                                const serving::QueryRequest& request,
                                bool collect_stats = false);

  /// Outcome counters over every query since construction, whichever entry
  /// point ran it (snapshot-independent: never serialized, a restored
  /// engine starts fresh).
  serving::OutcomeCounters serving_counters() const {
    return outcomes_.Snapshot();
  }

  /// Executes the queries in order against the same cache, reusing the
  /// engine's verification pool across the whole batch. Answers are
  /// identical to calling Process() per query on a same-state engine.
  /// Not reentrant: one batch (or Process call) at a time per engine.
  std::vector<BatchResult> ProcessBatch(std::span<const Graph> queries,
                                        const BatchOptions& batch = {});

  /// Writes a warm-start snapshot (docs/FORMATS.md): the full cache state
  /// and, when the method supports persistence (Method::SaveIndex), its
  /// index. Returns false on stream failure, filling `error` if non-null.
  /// Not thread-safe against concurrent Process/ProcessBatch calls.
  bool SaveSnapshot(std::ostream& out, std::string* error = nullptr) const;

  /// Restores a snapshot produced by SaveSnapshot(). The engine must use
  /// the same IgqOptions and method configuration as the producer — cache
  /// geometry/policy and index configuration mismatches are rejected;
  /// after a successful load it answers a query stream identically (same
  /// answers, hit/miss sequence, and replacement victims) to the
  /// producing engine.
  /// When the snapshot carries a method index, this substitutes for
  /// Method::Build() — see `info->method_index_restored`. Corrupt,
  /// truncated, version-mismatched, or wrong-dataset snapshots are
  /// rejected with `error` set and the engine — cache and method alike —
  /// left exactly as it was.
  bool LoadSnapshot(std::istream& in, std::string* error = nullptr,
                    SnapshotLoadInfo* info = nullptr);

  /// Applies one dataset mutation end-to-end (ApplyMutationTo in
  /// apply_mutation.h): the database first (AddGraph/RemoveGraph), then
  /// the method — through its incremental hooks when it has them, with a
  /// full Build() fallback otherwise — then the cache, whose answers are
  /// PATCHED in place (an added graph joins the cached answers it belongs
  /// to, a removed graph is dropped from them) so hit rate and §5.1
  /// metadata survive the mutation; nothing is flushed. `db` must be the
  /// database this engine was constructed over — the engine holds it
  /// const, so the caller, who owns the mutable database, passes it back
  /// in explicitly. Not thread-safe against
  /// concurrent Process/ProcessBatch (single-stream contract; the
  /// concurrent variant lives on ConcurrentQueryEngine).
  MutationResult ApplyMutation(GraphDatabase& db,
                               const GraphMutation& mutation);

  /// Attaches a write-ahead log (durability/wal.h): from now on every
  /// ApplyMutation appends its record — and makes it durable per the
  /// writer's sync policy — BEFORE touching the database, and refuses the
  /// mutation (MutationResult::wal_failed) when the append fails. Pass
  /// nullptr to detach. The writer must outlive the attachment and must
  /// already be Open()-ed at the database's current epoch; the engine does
  /// not own it. Follows the single-stream contract like ApplyMutation.
  void AttachWal(durability::WalWriter* wal) { wal_ = wal; }
  durability::WalWriter* wal() const { return wal_; }

  QueryDirection direction() const { return method_->Direction(); }
  const QueryCache& cache() const { return *cache_; }
  QueryCache& mutable_cache() { return *cache_; }
  const IgqOptions& options() const { return options_; }

 private:
  /// Verification over `candidates`, on the pool when one exists.
  /// `control` propagates cancellation into the workers; on a stopped
  /// control the result is the trusted subset (VerifyPool::Run contract).
  std::vector<GraphId> RunVerification(const std::vector<GraphId>& candidates,
                                       const PreparedQuery& prepared,
                                       serving::QueryControl& control) const;

  /// The query pipeline behind every entry point: filter, probe, prune,
  /// verify, then commit. Stage checkpoints poll `control` (inert when it
  /// is unarmed or unlimited); cache commits are deferred to completion, so
  /// a stopped query commits nothing and walks the degradation ladder.
  /// Fills `result` (stats only when `collect_stats`) and records its
  /// outcome in serving_counters().
  void RunPipeline(const Graph& query, serving::QueryControl& control,
                   bool collect_stats, QueryResult& result);

  const GraphDatabase* db_;
  Method* method_;
  IgqOptions options_;
  std::unique_ptr<QueryCache> cache_;
  std::unique_ptr<VerifyPool> pool_;  // null when verify_threads == 1
  durability::WalWriter* wal_ = nullptr;  // not owned; see AttachWal
  serving::OutcomeAccumulator outcomes_;
};

}  // namespace igq

#endif  // IGQ_IGQ_ENGINE_H_

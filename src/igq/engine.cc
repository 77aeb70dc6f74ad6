#include "igq/engine.h"

#include <algorithm>

#include "common/timer.h"
#include "features/canonical.h"
#include "igq/apply_mutation.h"
#include "igq/pruning.h"

namespace igq {
namespace {

// The sequential cache's snapshot section (docs/FORMATS.md).
constexpr snapshot::CacheSection kCacheSection{
    snapshot::kSectionCache, "failed to serialize cache state",
    "snapshot has no cache section",
    "cache section rejected (malformed, saved under different iGQ "
    "options, or over a different dataset)"};

}  // namespace

void ArmQueryControl(const serving::QueryRequest& request,
                     const IgqOptions::ServingOptions& defaults,
                     serving::QueryControl& control) {
  serving::QueryBudget budget = request.budget;
  if (budget.deadline_micros == 0) {
    budget.deadline_micros = defaults.default_deadline_micros;
  }
  if (budget.max_states == 0) budget.max_states = defaults.default_max_states;
  control.Arm(budget, request.cancel != nullptr ? request.cancel->flag()
                                                : nullptr);
}

QueryEngine::QueryEngine(const GraphDatabase& db, Method* method,
                         const IgqOptions& options)
    : db_(&db),
      method_(method),
      options_(ValidatedIgqOptions(options)),
      cache_(std::make_unique<QueryCache>(options_, db.graphs.size())) {
  if (options_.verify_threads > 1) {
    pool_ = std::make_unique<VerifyPool>(options_.verify_threads);
  }
}

QueryEngine::~QueryEngine() = default;

std::vector<GraphId> QueryEngine::RunVerification(
    const std::vector<GraphId>& candidates, const PreparedQuery& prepared,
    serving::QueryControl& control) const {
  auto verify = [this, &prepared](GraphId id) {
    return method_->Verify(prepared, id);
  };
  if (pool_ != nullptr) return pool_->Run(candidates, verify, &control);
  return VerifyInline(candidates, verify, &control);
}

std::vector<GraphId> QueryEngine::Process(const Graph& query,
                                          QueryStats* stats) {
  serving::QueryControl control;  // never armed: every check stays inert
  QueryResult result;
  RunPipeline(query, control, stats != nullptr, result);
  if (stats != nullptr) *stats = result.stats;
  return std::move(result.answer);
}

QueryResult QueryEngine::ProcessWithBudget(const Graph& query,
                                           const serving::QueryRequest& request,
                                           bool collect_stats) {
  serving::QueryControl control;
  ArmQueryControl(request, options_.serving, control);
  QueryResult result;
  RunPipeline(query, control, collect_stats, result);
  return result;
}

void QueryEngine::RunPipeline(const Graph& query,
                              serving::QueryControl& control,
                              bool collect_stats, QueryResult& result) {
  // collect_stats == false asks for NO stats collection (BatchOptions doc):
  // every stat write below is guarded and every ScopedTimer gets a null
  // sink, which skips its clock reads entirely.
  QueryStats* const stats = collect_stats ? &result.stats : nullptr;
  int64_t* const filter_sink =
      stats != nullptr ? &stats->filter_micros : nullptr;
  int64_t* const probe_sink = stats != nullptr ? &stats->probe_micros : nullptr;
  int64_t* const verify_sink =
      stats != nullptr ? &stats->verify_micros : nullptr;
  ScopedTimer total_timer(stats != nullptr ? &stats->total_micros : nullptr);

  // Every exit goes through one of these two: a completed answer, or the
  // typed outcome of a stopped control. All cache commits are deferred to
  // the completed exit, so a stopped query leaves the cache bit-identical
  // to one that never saw it.
  auto finish = [&](std::vector<GraphId> answer) {
    result.answer = std::move(answer);
    result.outcome.elapsed_micros = control.ElapsedMicros();
    if (stats != nullptr) stats->answer_size = result.answer.size();
    outcomes_.Record(result.outcome);
  };
  auto finish_stopped = [&](bool partial_eligible,
                            std::vector<GraphId> partial_answer) {
    const bool partial =
        partial_eligible && options_.serving.degrade_to_partial;
    result.outcome = serving::MakeStoppedOutcome(control, partial);
    result.answer = partial ? std::move(partial_answer)
                            : std::vector<GraphId>{};
    if (stats != nullptr) stats->answer_size = result.answer.size();
    outcomes_.Record(result.outcome);
  };

  // The owning stream's thread runs the probe and (part of) the verify
  // searches: install the control so the amortized match-core checkpoint
  // covers them. VerifyPool installs it on its borrowed workers itself.
  ScopedSearchControl search_guard(MatchContext::ThreadLocal(), &control);

  std::unique_ptr<PreparedQuery> prepared = method_->Prepare(query);
  prepared->set_control(&control);

  // Stage 1 (Fig. 6): host-method filtering.
  control.set_stage(serving::QueryStage::kFilter);
  std::vector<GraphId> candidates;
  {
    ScopedTimer filter_timer(filter_sink);
    candidates = method_->Filter(*prepared);
  }
  if (control.CheckNow()) return finish_stopped(false, {});
  if (stats != nullptr) stats->candidates_initial = candidates.size();
  // Memory cap: the post-filter candidate set is the query's dominant
  // allocation driver, so the cap is enforced here, before pruning and
  // verification fan out over it.
  if (control.ChargeCandidates(candidates.size())) {
    return finish_stopped(false, {});
  }

  // Stage 2: the cache lookup (skipped when iGQ is disabled — the engine is
  // then the plain host method, and the prune below sees no cached entry).
  // The canonical-key exact-hit fast path goes first: one hash probe of the
  // key map. Only on a key miss does the feature extraction + index probe
  // run — an exact hit therefore performs zero isomorphism tests. The
  // filter still runs either way: its candidate count feeds the §5.1
  // exact-hit credit below, which keeps eviction trajectories (and the
  // fig09/fig15 cells) identical to the pre-key isomorphism path.
  const size_t query_nodes = query.NumVertices();
  CacheProbe probe;
  std::string canonical;
  // Extracted for the probe, kept for the insert: the cache indexes the
  // entry from them when its window flushes.
  PathFeatureCounts features;
  if (options_.enabled) {
    control.set_stage(serving::QueryStage::kProbe);
    size_t exact_position = SIZE_MAX;
    {
      ScopedTimer probe_timer(probe_sink);
      canonical = GraphCanonicalCode(query);
      exact_position = cache_->FindExactByKey(canonical);
      if (exact_position == SIZE_MAX) {
        features = cache_->ExtractFeatures(query);
        probe = cache_->Probe(query, features);
      }
    }
    // A stop during the probe makes its results garbage (an interrupted
    // containment search aliases to a hit/miss) — abort without facts.
    if (control.CheckNow()) return finish_stopped(false, {});
    if (stats != nullptr) {
      stats->probe_iso_tests = probe.probe_iso_tests;
      stats->isub_hits = probe.supergraph_positions.size();
      stats->isuper_hits = probe.subgraph_positions.size();
    }

    // §4.3 case 1: identical (isomorphic) previous query — return its
    // answer outright. The canonical key found it above in one hash
    // lookup; the probe fallback covers only the key map and probe
    // disagreeing, which the canonicalization test suite rules out (the
    // key map holds exactly the flushed entries the probe scans). Commit:
    // counter tick, then the single-site §5.1 credit.
    if (exact_position == SIZE_MAX) exact_position = probe.exact_position;
    if (exact_position != SIZE_MAX) {
      cache_->RecordQueryProcessed();
      cache_->CreditExactHit(exact_position, candidates.size(),
                             SumIsomorphismCosts(*db_, method_->Direction(),
                                                 query_nodes, candidates));
      if (stats != nullptr) {
        stats->shortcut = ShortcutKind::kExactHit;
        stats->candidates_final = 0;
      }
      return finish(cache_->entries()[exact_position].answer.ToVector());
    }
  }

  // The §4.4 role inversion. For subgraph queries, cached *supergraphs* of g
  // yield guaranteed answers (formulas (3)/(4)) and cached *subgraphs*
  // intersect the candidate set (formula (5)). For supergraph queries the
  // roles swap: cached subgraphs G ⊆ g guarantee (Gi ⊆ G ⊆ g), cached
  // supergraphs g ⊆ G intersect (Gi ⊆ g implies Gi ⊆ G).
  const bool subgraph_query =
      method_->Direction() == QueryDirection::kSubgraph;
  const std::vector<size_t>& guarantee_positions =
      subgraph_query ? probe.supergraph_positions : probe.subgraph_positions;
  const std::vector<size_t>& intersect_positions =
      subgraph_query ? probe.subgraph_positions : probe.supergraph_positions;

  // The prune scratch (and the outcome and deferred credits inside it) is
  // this thread's; it stays valid through verification and the commit.
  // Costs are computed inside the callback (the removed span is only
  // scratch-valid there); the credits themselves are replayed at commit.
  PruneScratch& prune_scratch = PruneScratch::ThreadLocal();
  prune_scratch.credits.clear();
  {
    ScopedTimer prune_timer(probe_sink);
    std::vector<const CachedQuery*> guarantee, intersect;
    guarantee.reserve(guarantee_positions.size());
    for (size_t position : guarantee_positions) {
      guarantee.push_back(&cache_->entries()[position]);
    }
    intersect.reserve(intersect_positions.size());
    for (size_t position : intersect_positions) {
      intersect.push_back(&cache_->entries()[position]);
    }
    PruneCandidates(
        candidates, guarantee, intersect,
        [&](PruneSide side, size_t index, std::span<const GraphId> removed) {
          prune_scratch.credits.push_back(
              {side, index, removed.size(),
               SumIsomorphismCosts(*db_, method_->Direction(), query_nodes,
                                   removed)});
        },
        prune_scratch, &control);
  }
  const PruneOutcome& pruned = prune_scratch.outcome;

  if (stats != nullptr) {
    stats->candidates_final = pruned.remaining.size();
    if (pruned.empty_answer_shortcut) {
      stats->shortcut = ShortcutKind::kEmptyAnswerPruning;
    }
  }

  // A stop during prune: the entries consulted so far yielded true facts,
  // so the guaranteed set is a valid partial answer (§4.3 composition).
  if (control.stopped()) {
    std::vector<GraphId> partial;
    AssembleAnswer(pruned, {}, prune_scratch, &partial);
    return finish_stopped(true, std::move(partial));
  }

  control.set_stage(serving::QueryStage::kVerify);
  std::vector<GraphId> verified;
  {
    ScopedTimer verify_timer(verify_sink);
    verified = RunVerification(pruned.remaining, *prepared, control);
  }
  if (stats != nullptr) stats->iso_tests = pruned.remaining.size();

  // Formula (4): Answer(g) = verified ∪ (pruned guaranteed answers), via
  // the shared assembly next to PruneCandidates.
  std::vector<GraphId> answer;
  AssembleAnswer(pruned, verified, prune_scratch, &answer);

  if (control.stopped()) {
    // Verified ids are the trusted subset (RunVerification contract), so
    // guaranteed ∪ verified is still a true partial answer. Never cached.
    return finish_stopped(true, std::move(answer));
  }

  // Stages 6-8 (Fig. 6), the commit: counter tick, prune credits (hit +
  // prune per consulted entry, in consultation order), then the insertion
  // of the executed query; maintenance (window flush + index relink) is
  // timed inside the cache and charged to this query. The canonical key and
  // the features were already computed for the lookup and the probe.
  if (options_.enabled) {
    cache_->RecordQueryProcessed();
    for (const PruneCredit& credit : prune_scratch.credits) {
      const size_t position = credit.side == PruneSide::kGuarantee
                                  ? guarantee_positions[credit.index]
                                  : intersect_positions[credit.index];
      cache_->CreditHit(position);
      cache_->CreditPrune(position, credit.removed, credit.cost);
    }
    const int64_t maintenance =
        cache_->Insert(query, answer, std::move(canonical), features);
    if (stats != nullptr) stats->maintenance_micros = maintenance;
  }
  finish(std::move(answer));
}

bool QueryEngine::SaveSnapshot(std::ostream& out, std::string* error) const {
  return snapshot::SaveEngineSnapshot(
      out, *db_, *method_, kCacheSection,
      [this](snapshot::BinaryWriter& writer, uint64_t num_graphs,
             uint32_t dataset_crc) {
        cache_->Save(writer, num_graphs, dataset_crc);
      },
      error);
}

bool QueryEngine::LoadSnapshot(std::istream& in, std::string* error,
                               SnapshotLoadInfo* info) {
  std::unique_ptr<QueryCache> fresh_cache;
  return snapshot::LoadEngineSnapshot(
      in, *db_, *method_, kCacheSection,
      [&](snapshot::BinaryReader& reader, uint64_t num_graphs,
          uint32_t dataset_crc) {
        fresh_cache = std::make_unique<QueryCache>(options_, num_graphs);
        return fresh_cache->Load(reader, num_graphs, dataset_crc);
      },
      [&] {
        cache_ = std::move(fresh_cache);
        return cache_->size();
      },
      error, info);
}

MutationResult QueryEngine::ApplyMutation(GraphDatabase& db,
                                          const GraphMutation& mutation) {
  if (&db != db_) return {};  // not the database this engine serves
  return ApplyMutationTo(db, *method_, *cache_, wal_, mutation);
}

std::vector<BatchResult> QueryEngine::ProcessBatch(
    std::span<const Graph> queries, const BatchOptions& batch) {
  // An unlimited batch leaves every control unarmed, exactly like Process.
  const bool budgeted = !batch.budget.Unlimited() || batch.cancel != nullptr;
  const serving::QueryRequest request{batch.budget, batch.cancel};
  std::vector<BatchResult> results;
  results.reserve(queries.size());
  for (const Graph& query : queries) {
    serving::QueryControl control;
    if (budgeted) ArmQueryControl(request, options_.serving, control);
    QueryResult result;
    RunPipeline(query, control, batch.collect_stats, result);
    results.push_back(
        {std::move(result.answer), result.stats, result.outcome});
  }
  return results;
}

}  // namespace igq

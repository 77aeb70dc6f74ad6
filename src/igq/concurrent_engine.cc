#include "igq/concurrent_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "common/timer.h"
#include "features/canonical.h"
#include "igq/apply_mutation.h"
#include "igq/pruning.h"

#if defined(__SANITIZE_THREAD__)
#define IGQ_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IGQ_TSAN_ACTIVE 1
#endif
#endif

namespace igq {
namespace {

// The sharded cache's snapshot section (docs/FORMATS.md): deliberately not
// the sequential kSectionCache, whose geometry cannot match.
constexpr snapshot::CacheSection kShardedCacheSection{
    snapshot::kSectionShardedCache, "failed to serialize sharded cache state",
    "snapshot has no sharded-cache section",
    "sharded-cache section rejected (malformed, saved under different iGQ "
    "options — including cache_shards — or over a different dataset)"};

// Deadline-bounded shared acquisition of the writer gate. libstdc++ lowers
// try_lock_until with a steady_clock deadline to pthread_rwlock_clockrdlock,
// which ThreadSanitizer (through at least GCC 12's libtsan) does not
// intercept — a successful acquisition is then invisible to TSan and every
// read behind the gate is reported as a false race against ApplyMutation's
// exclusive hold. Under TSan only, poll the intercepted try-lock path
// instead; production builds keep the blocking timed wait.
bool LockSharedUntil(std::shared_lock<std::shared_timed_mutex>& gate,
                     std::chrono::steady_clock::time_point deadline) {
#ifdef IGQ_TSAN_ACTIVE
  while (!gate.try_lock()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
#else
  return gate.try_lock_until(deadline);
#endif
}

}  // namespace

ConcurrentQueryEngine::ConcurrentQueryEngine(const GraphDatabase& db,
                                             Method* method,
                                             const IgqOptions& options)
    : db_(&db),
      method_(method),
      options_(ValidatedIgqOptions(options)),
      cache_(std::make_unique<ShardedQueryCache>(options_, db.graphs.size())),
      admission_(options_.serving.admission_watermark,
                 options_.serving.admission_max_waiters) {
  if (options_.verify_threads > 1) {
    pool_ = std::make_unique<VerifyPool>(options_.verify_threads);
  }
}

ConcurrentQueryEngine::~ConcurrentQueryEngine() = default;

std::vector<GraphId> ConcurrentQueryEngine::RunVerification(
    const std::vector<GraphId>& candidates, const PreparedQuery& prepared,
    serving::QueryControl& control) {
  auto verify = [this, &prepared](GraphId id) {
    return method_->Verify(prepared, id);
  };
  // Borrow the shared pool only when it is free AND the candidate set is
  // big enough for the pool to split (its own inline threshold); a busy
  // pool means another stream is verifying — running inline then is the
  // point of stream-level parallelism, never a stall.
  if (pool_ != nullptr && candidates.size() >= 2 * pool_->threads()) {
    std::unique_lock<std::mutex> borrow(pool_mutex_, std::try_to_lock);
    if (borrow.owns_lock()) return pool_->Run(candidates, verify, &control);
  }
  return VerifyInline(candidates, verify, &control);
}

std::vector<GraphId> ConcurrentQueryEngine::Process(const Graph& query,
                                                    QueryStats* stats) {
  serving::QueryControl control;  // never armed: every check stays inert
  QueryResult result;
  RunPipeline(query, control, stats != nullptr, result);
  if (stats != nullptr) *stats = result.stats;
  return std::move(result.answer);
}

QueryResult ConcurrentQueryEngine::ProcessWithBudget(
    const Graph& query, const serving::QueryRequest& request,
    bool collect_stats) {
  serving::QueryControl control;
  ArmQueryControl(request, options_.serving, control);
  QueryResult result;
  RunPipeline(query, control, collect_stats, result);
  return result;
}

void ConcurrentQueryEngine::RunPipeline(const Graph& query,
                                        serving::QueryControl& control,
                                        bool collect_stats,
                                        QueryResult& result) {
  // Same null-stats contract as QueryEngine::Process: without
  // `collect_stats` nothing is collected (no clock reads, no counter
  // writes).
  QueryStats* const stats = collect_stats ? &result.stats : nullptr;
  int64_t* const filter_sink =
      stats != nullptr ? &stats->filter_micros : nullptr;
  int64_t* const probe_sink = stats != nullptr ? &stats->probe_micros : nullptr;
  int64_t* const verify_sink =
      stats != nullptr ? &stats->verify_micros : nullptr;
  ScopedTimer total_timer(stats != nullptr ? &stats->total_micros : nullptr);

  // Every exit goes through one of these two (or the shed outcome in
  // `admit`). All shared-cache commits are deferred to the completed exits,
  // so every stopped exit leaves the shared cache bit-identical to one that
  // never saw the query.
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
    result.answer =
        partial ? std::move(partial_answer) : std::vector<GraphId>{};
    if (stats != nullptr) stats->answer_size = result.answer.size();
    outcomes_.Record(result.outcome);
  };

  // Stage: writer-gate wait, shared side, held for the query's whole
  // lifetime so the database, method index, and cache never shift
  // underneath it. Queries never block each other here — only an in-flight
  // ApplyMutation does. The wait is deadline-aware: a query that cannot get
  // past a mutation before its deadline reports kDeadlineExpired at
  // kGateWait instead of blocking unboundedly. Without a deadline the wait
  // is plain — cancellation is then noticed right after acquisition
  // (mutations are short; the latency is bounded by one mutation).
  control.set_stage(serving::QueryStage::kGateWait);
  std::shared_lock<std::shared_timed_mutex> mutation_gate(mutation_mutex_,
                                                          std::defer_lock);
  auto lock_gate = [&] {
    if (!control.has_deadline()) {
      mutation_gate.lock();
      return true;
    }
    if (LockSharedUntil(mutation_gate, control.deadline())) return true;
    control.CheckNow();  // latches kDeadline (or kCancelled) at kGateWait
    return false;
  };
  if (!lock_gate() || control.CheckNow()) return finish_stopped(false, {});

  // The owning stream's searches (probe side and its verify share) run on
  // this thread; VerifyPool installs the control on its borrowed workers
  // itself.
  ScopedSearchControl search_guard(MatchContext::ThreadLocal(), &control);

  // Admission applies to limited queries only (with admission on, every
  // ProcessWithBudget query is: the watermark implies a default deadline),
  // so Process and unbudgeted batches are never queued or shed. Cost: query
  // size in vertices + edges, a cheap proxy for the expected filter/verify
  // work. Admission runs with the gate DROPPED — a query parked in the
  // admission queue must not hold the shared gate, or it would block
  // mutations for up to its whole deadline — then re-acquires the gate.
  // Returns false when `result` already holds the rejection outcome.
  const uint64_t admission_cost =
      static_cast<uint64_t>(query.NumVertices()) + query.NumEdges();
  serving::AdmissionTicket ticket;
  auto admit = [&]() -> bool {
    if (!admission_.enabled() || !control.limited()) return true;
    mutation_gate.unlock();
    control.set_stage(serving::QueryStage::kAdmission);
    const serving::AdmissionController::Result admitted =
        admission_.Admit(admission_cost, control);
    if (admitted == serving::AdmissionController::Result::kShed) {
      result.outcome.kind = serving::QueryOutcomeKind::kShed;
      result.outcome.stage = serving::QueryStage::kAdmission;
      result.outcome.elapsed_micros = control.ElapsedMicros();
      outcomes_.Record(result.outcome);
      return false;
    }
    if (admitted == serving::AdmissionController::Result::kDeadline) {
      control.CheckNow();
      finish_stopped(false, {});
      return false;
    }
    ticket = serving::AdmissionTicket(&admission_, admission_cost);
    control.set_stage(serving::QueryStage::kGateWait);
    if (!lock_gate() || control.CheckNow()) {
      finish_stopped(false, {});
      return false;
    }
    return true;
  };

  // Exact-hit fast path, BEFORE the host method's filter: an isomorphic
  // cached query is found by one canonicalization plus one hash lookup, so
  // a hit pays neither Prepare/Filter nor a single isomorphism test, nor
  // admission (cache hits stay cheap under overload). TryExactHit commits
  // the hit itself — query-counter tick, then the §5.1 credit — which
  // diverges from the sequential engine by design: R/C accrue over the
  // cached answer rather than a filtered candidate set the fast path never
  // computes (docs/CONCURRENCY.md, "what may differ").
  const size_t query_nodes = query.NumVertices();
  std::string canonical;
  std::vector<GraphId> hit_answer;
  auto try_exact_hit = [&] {
    ScopedTimer probe_timer(probe_sink);
    const bool hit = cache_->TryExactHit(
        canonical,
        [&](std::span<const GraphId> ids) {
          return SumIsomorphismCosts(*db_, method_->Direction(), query_nodes,
                                     ids);
        },
        &hit_answer);
    if (hit && stats != nullptr) stats->shortcut = ShortcutKind::kExactHit;
    return hit;
  };
  if (options_.enabled) {
    control.set_stage(serving::QueryStage::kFastPath);
    {
      ScopedTimer probe_timer(probe_sink);
      canonical = GraphCanonicalCode(query);
    }
    if (try_exact_hit()) return finish(std::move(hit_answer));
  }

  if (!admit()) return;

  // Singleflight: concurrent streams missing on the same canonical key
  // coalesce onto one in-flight record. The first stream to register (the
  // leader) runs the pipeline; the rest park on the record, each only until
  // its own deadline, and share the published answer. A follower whose
  // leader unwound or stopped without publishing re-checks its own budget:
  // a spent one stops here, a live one runs the pipeline itself,
  // unregistered — correctness over coalescing.
  std::shared_ptr<InFlightQuery> inflight;
  bool leader = false;
  if (options_.enabled) {
    control.set_stage(serving::QueryStage::kSingleflightWait);
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      auto [it, inserted] = inflight_.try_emplace(canonical);
      if (inserted) it->second = std::make_shared<InFlightQuery>();
      leader = inserted;
      inflight = it->second;
    }
    if (!leader) {
      std::unique_lock<std::mutex> wait_lock(inflight->mutex);
      bool done = false;
      if (control.has_deadline()) {
        done = inflight->cv.wait_until(wait_lock, control.deadline(),
                                       [&] { return inflight->done; });
      } else {
        // No deadline: wake periodically to notice external cancellation.
        while (!(done = inflight->done)) {
          if (inflight->cv.wait_for(wait_lock, std::chrono::milliseconds(50),
                                    [&] { return inflight->done; })) {
            done = true;
            break;
          }
          if (control.CheckNow()) break;
        }
      }
      if (done && !inflight->failed) {
        std::vector<GraphId> shared_answer = inflight->answer;
        wait_lock.unlock();
        // Coalesced completion: commit this query's counter tick.
        cache_->RecordQueryProcessed();
        coalesced_hits_.fetch_add(1, std::memory_order_relaxed);
        if (stats != nullptr) stats->shortcut = ShortcutKind::kCoalescedHit;
        return finish(std::move(shared_answer));
      }
      wait_lock.unlock();
      if (control.CheckNow()) return finish_stopped(false, {});
    }
  }

  // Leader-side publish guard: on every exit — completed, stopped, or
  // unwinding — wake the parked followers (with the answer, or `failed`),
  // then unregister the key. Unregistration comes last and AFTER Insert has
  // registered the key in the cache's canonical map, so a stream arriving
  // in any interleaving either coalesces, or hits on its fast path or its
  // leader re-check below; it never re-runs a published pipeline. Partial
  // answers are leader-private (a follower coalescing one would mistake a
  // subset for the full answer), so a stopped leader publishes only
  // `failed`.
  struct PublishGuard {
    ConcurrentQueryEngine* engine;
    const std::string* key;  // null: not a leader, guard is a no-op
    InFlightQuery* record;
    bool published = false;
    std::vector<GraphId> answer;

    void Publish(const std::vector<GraphId>& result) {
      if (key == nullptr) return;
      answer = result;
      published = true;
    }
    ~PublishGuard() {
      if (key == nullptr) return;
      {
        std::lock_guard<std::mutex> lock(record->mutex);
        record->failed = !published;
        if (published) record->answer = std::move(answer);
        record->done = true;
      }
      record->cv.notify_all();
      std::lock_guard<std::mutex> lock(engine->inflight_mutex_);
      engine->inflight_.erase(*key);
    }
  };
  PublishGuard publish{this, leader ? &canonical : nullptr, inflight.get()};

  // A new leader looks the key up once more: the previous leader of this
  // key may have inserted its answer and unregistered between this
  // stream's fast-path miss and its registration. Without this re-check
  // the key's pipeline would run twice; with it, one execution per key is
  // exact (a stale canonical ref aside).
  if (leader && try_exact_hit()) {
    publish.Publish(hit_answer);
    return finish(std::move(hit_answer));
  }

  pipeline_executions_.fetch_add(1, std::memory_order_relaxed);

  std::unique_ptr<PreparedQuery> prepared = method_->Prepare(query);
  prepared->set_control(&control);

  // Host-method filtering. Stream-level parallelism replaces the Fig. 6
  // per-query thread split: a serving thread that spawned probe helpers per
  // query would oversubscribe the machine under load.
  control.set_stage(serving::QueryStage::kFilter);
  std::vector<GraphId> candidates;
  {
    ScopedTimer filter_timer(filter_sink);
    candidates = method_->Filter(*prepared);
  }
  if (control.CheckNow()) return finish_stopped(false, {});
  if (stats != nullptr) stats->candidates_initial = candidates.size();
  // Memory cap: the post-filter candidate set is the query's dominant
  // allocation driver.
  if (control.ChargeCandidates(candidates.size())) {
    return finish_stopped(false, {});
  }

  // Stage: probe (skipped when iGQ is disabled; the prune below then sees no
  // cached entry). The deferred §5.1 credits address entries by session
  // Hit, so the probe session stays alive through verification and the
  // commit — its shared shard locks pin the Hit positions. The hold blocks
  // only shard-exclusive work (inserts, flush swaps), never other probes.
  std::optional<ShardedQueryCache::ProbeSession> session;
  // Extracted for the probe, kept for the insert (the flush indexes the
  // entry from them).
  PathFeatureCounts features;
  if (options_.enabled) {
    control.set_stage(serving::QueryStage::kProbe);
    {
      ScopedTimer probe_timer(probe_sink);
      features = cache_->ExtractFeatures(query);
      session.emplace(cache_->Probe(query, features));
    }
    // A stop during the probe makes its results garbage (an interrupted
    // containment search aliases to a hit/miss) — abort without facts.
    if (control.CheckNow()) return finish_stopped(false, {});
    if (stats != nullptr) {
      stats->probe_iso_tests = session->probe_iso_tests();
      stats->isub_hits = session->supergraph_hits().size();
      stats->isuper_hits = session->subgraph_hits().size();
    }

    // §4.3 case 1: identical previous query — return its answer outright.
    // Normally unreachable since the canonical fast path already checked,
    // but a stale canonical ref (a flush raced the lookup) can miss there
    // and land here. Commit: tick plus the single crediting site.
    if (session->has_exact()) {
      cache_->RecordQueryProcessed();
      session->CreditExactHit(session->exact(), candidates.size(),
                              SumIsomorphismCosts(*db_, method_->Direction(),
                                                  query_nodes, candidates));
      std::vector<GraphId> cached_answer =
          session->entry(session->exact()).answer.ToVector();
      if (stats != nullptr) {
        stats->shortcut = ShortcutKind::kExactHit;
        stats->candidates_final = 0;
      }
      publish.Publish(cached_answer);
      return finish(std::move(cached_answer));
    }
  }

  // The §4.4 role inversion, as in the sequential engine: the guarantee
  // side yields answers without verification, the intersect side prunes.
  const bool subgraph_query =
      method_->Direction() == QueryDirection::kSubgraph;
  const std::vector<ShardedQueryCache::Hit> no_hits;
  const std::vector<ShardedQueryCache::Hit>& guarantee_hits =
      !session         ? no_hits
      : subgraph_query ? session->supergraph_hits()
                       : session->subgraph_hits();
  const std::vector<ShardedQueryCache::Hit>& intersect_hits =
      !session         ? no_hits
      : subgraph_query ? session->subgraph_hits()
                       : session->supergraph_hits();

  // This thread's prune scratch; the outcome and deferred credits inside
  // stay valid through verification and the commit (each stream thread has
  // its own). Costs are computed inside the callback (the removed span is
  // only scratch-valid there); the credits themselves are deferred.
  PruneScratch& prune_scratch = PruneScratch::ThreadLocal();
  prune_scratch.credits.clear();
  {
    ScopedTimer prune_timer(probe_sink);
    std::vector<const CachedQuery*> guarantee, intersect;
    guarantee.reserve(guarantee_hits.size());
    for (const ShardedQueryCache::Hit& hit : guarantee_hits) {
      guarantee.push_back(&session->entry(hit));
    }
    intersect.reserve(intersect_hits.size());
    for (const ShardedQueryCache::Hit& hit : intersect_hits) {
      intersect.push_back(&session->entry(hit));
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

  // Commit, still inside the session: counter tick, then the buffered
  // credits in consultation order (the session pins their Hits). Then the
  // session goes — Insert takes exclusive shard locks, which would
  // self-deadlock against its shared locks — and Insert (which registers
  // the canonical key in the cache) runs strictly before the publish guard
  // unregisters the in-flight record.
  if (session) {
    cache_->RecordQueryProcessed();
    for (const PruneCredit& credit : prune_scratch.credits) {
      const ShardedQueryCache::Hit& hit = credit.side == PruneSide::kGuarantee
                                              ? guarantee_hits[credit.index]
                                              : intersect_hits[credit.index];
      session->CreditHit(hit);
      session->CreditPrune(hit, credit.removed, credit.cost);
    }
    session.reset();
    const int64_t maintenance =
        cache_->Insert(query, answer, canonical, features);
    if (stats != nullptr) stats->maintenance_micros = maintenance;
    publish.Publish(answer);
  }
  finish(std::move(answer));
}

std::vector<BatchResult> ConcurrentQueryEngine::ProcessConcurrent(
    std::span<const Graph> queries, size_t streams,
    const BatchOptions& batch) {
  std::vector<BatchResult> results(queries.size());
  if (queries.empty()) return results;
  streams = std::clamp<size_t>(streams, 1, queries.size());

  // An unlimited batch leaves every control unarmed, exactly like Process.
  const bool budgeted =
      !batch.budget.Unlimited() || batch.cancel != nullptr;
  const serving::QueryRequest request{batch.budget, batch.cancel};

  // Dynamic claiming: streams pull the next unprocessed query, so a stream
  // stuck on an expensive query does not strand its share of the batch.
  std::atomic<size_t> cursor{0};
  auto stream_loop = [&] {
    for (;;) {
      const size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
      if (index >= queries.size()) break;
      serving::QueryControl control;
      if (budgeted) ArmQueryControl(request, options_.serving, control);
      QueryResult result;
      RunPipeline(queries[index], control, batch.collect_stats, result);
      results[index] = {std::move(result.answer), result.stats,
                        result.outcome};
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(streams - 1);
  for (size_t t = 1; t < streams; ++t) workers.emplace_back(stream_loop);
  stream_loop();  // the caller is stream 0
  for (std::thread& worker : workers) worker.join();
  return results;
}

bool ConcurrentQueryEngine::SaveSnapshot(std::ostream& out,
                                         std::string* error) const {
  return snapshot::SaveEngineSnapshot(
      out, *db_, *method_, kShardedCacheSection,
      [this](snapshot::BinaryWriter& writer, uint64_t num_graphs,
             uint32_t dataset_crc) {
        cache_->Save(writer, num_graphs, dataset_crc);
      },
      error);
}

bool ConcurrentQueryEngine::LoadSnapshot(std::istream& in, std::string* error,
                                         SnapshotLoadInfo* info) {
  std::unique_ptr<ShardedQueryCache> fresh_cache;
  return snapshot::LoadEngineSnapshot(
      in, *db_, *method_, kShardedCacheSection,
      [&](snapshot::BinaryReader& reader, uint64_t num_graphs,
          uint32_t dataset_crc) {
        fresh_cache = std::make_unique<ShardedQueryCache>(options_, num_graphs);
        return fresh_cache->Load(reader, num_graphs, dataset_crc);
      },
      [&] {
        // Snapshots carry compacted answers (no entry references a
        // tombstoned dataset graph), so the restored cache's dead set
        // restarts from the database's tombstones — future removals extend
        // it from there.
        fresh_cache->SeedDeadIds(db_->tombstones, db_->graphs.size());
        cache_ = std::move(fresh_cache);
        return cache_->size();
      },
      error, info);
}

MutationResult ConcurrentQueryEngine::ApplyMutation(
    GraphDatabase& db, const GraphMutation& mutation) {
  if (&db != db_) return {};  // not the database this engine serves
  // Writer side of the mutation gate: waits for in-flight queries to drain
  // and blocks new ones for the duration of the mutation, which is what
  // makes the db.graphs reallocation (and the method's index surgery)
  // safe — see the header and docs/CONCURRENCY.md. The WAL append sits
  // inside the exclusive section: the gate is what serializes WAL writes,
  // so record order on disk IS apply order.
  std::unique_lock<std::shared_timed_mutex> mutation_gate(mutation_mutex_);
  return ApplyMutationTo(db, *method_, *cache_, wal_, mutation);
}

}  // namespace igq

#include "igq/igq_index.h"

#include "common/id_map.h"
#include "common/id_set.h"

namespace igq {

void IgqIndex::Build(const std::vector<CachedQuery>& cached) {
  features_ = FeatureCountIndex(features_.options());
  cached_views_.Clear();
  cached_plans_.clear();
  Relink(cached, {});
}

void IgqIndex::Relink(const std::vector<CachedQuery>& cached,
                      std::span<const uint32_t> id_map) {
  cached_ = &cached;
  const size_t kept = KeptIdCount(id_map);
  // Tombstoned entries get no postings and the never-matches NF row, so
  // they can never surface as candidates of either probe: a dark entry
  // must not rejoin the probe path before compaction (in the supergraph
  // direction its stale answer would be UNIONED into results, resurfacing
  // the removed graph). Its plan stays default-constructed (never probed).
  std::vector<const SortedPathFeatures*> added;
  added.reserve(cached.size() - kept);
  for (size_t i = kept; i < cached.size(); ++i) {
    added.push_back(cached[i].tombstoned ? nullptr : &cached[i].features);
  }
  features_.Relink(id_map, added);
  // Probe-test substrate: survivors keep theirs, each new entry gets its
  // view and plan once, here, off the query path.
  cached_views_.Compact(id_map);
  CompactByIdMap(cached_plans_, id_map);
  cached_plans_.resize(cached.size());
  for (size_t i = kept; i < cached.size(); ++i) {
    cached_views_.Append(cached[i].graph);
    if (!cached[i].tombstoned) cached_plans_[i].Compile(cached[i].graph);
  }
}

void IgqIndex::FindSupergraphsOf(const Graph& query,
                                 const PathFeatureCounts& query_features,
                                 std::vector<size_t>* result,
                                 size_t* probe_tests) const {
  result->clear();
  if (cached_ == nullptr || cached_->empty()) return;

  // Counting filter: candidate G must contain every query feature at least
  // as often as the query does (same filter the host methods use). The
  // per-feature eligible lists are sorted by construction (postings are
  // kept in ascending entry position), so the running candidate set
  // narrows through the galloping intersect kernel — all buffers come from
  // this thread's scratch and are reused across probes.
  IdSetScratch& scratch = IdSetScratch::ThreadLocal();
  std::vector<GraphId>& candidates = scratch.ids_a();
  std::vector<GraphId>& eligible = scratch.ids_b();
  std::vector<GraphId>& merged = scratch.ids_c();
  // The scratch holds the previous probe's ids; a featureless query (empty
  // graph) skips the loop entirely and must see an empty candidate set,
  // exactly as the pre-scratch code did.
  candidates.clear();
  bool first = true;
  for (const auto& [key, query_count] : query_features) {
    const std::vector<PathPosting>* postings = features_.Postings(key);
    if (postings == nullptr) return;
    eligible.clear();
    for (const PathPosting& posting : *postings) {
      if (posting.count >= query_count) eligible.push_back(posting.graph_id);
    }
    if (first) {
      std::swap(candidates, eligible);  // O(1): both are scratch buffers
      first = false;
    } else {
      IntersectSorted(candidates, eligible, &merged);
      std::swap(candidates, merged);
    }
    if (candidates.empty()) return;
  }

  // The query is the pattern for every surviving candidate: compile its
  // search plan once into this thread's scratch and reuse it across all
  // probe tests against the prebuilt cached-graph views (probes run
  // concurrently across shards, so the scratch must be thread-local,
  // never a member).
  MatchContext& ctx = MatchContext::ThreadLocal();
  MatchPlan& plan = ctx.scratch_plan();
  plan.Compile(query);
  for (GraphId candidate : candidates) {
    if (probe_tests != nullptr) ++(*probe_tests);
    if (PlanContains(plan, cached_views_.view(candidate), ctx)) {
      result->push_back(candidate);
    }
  }
}

void IgqIndex::FindSubgraphsOf(const Graph& query,
                               const PathFeatureCounts& query_features,
                               std::vector<size_t>* result,
                               size_t* probe_tests) const {
  result->clear();
  if (cached_ == nullptr || cached_->empty()) return;
  // Candidate generation through this thread's scratch (the tally-based
  // Algorithm 2 — see FeatureCountIndex::FindPotentialSubgraphsOf).
  IdSetScratch& scratch = IdSetScratch::ThreadLocal();
  std::vector<GraphId>& candidates = scratch.ids_a();
  features_.FindPotentialSubgraphsOf(query_features, &candidates);
  if (candidates.empty()) return;
  // The query is the target for every candidate: build its CSR view once
  // into this thread's scratch and probe it with the prebuilt cached-graph
  // plans (thread-local scratch — probes run concurrently).
  MatchContext& ctx = MatchContext::ThreadLocal();
  CsrGraphView& query_view = ctx.scratch_target();
  query_view.Assign(query);
  for (GraphId candidate : candidates) {
    if (probe_tests != nullptr) ++(*probe_tests);
    if (PlanContains(cached_plans_[candidate], query_view, ctx)) {
      result->push_back(candidate);
    }
  }
}

size_t IgqIndex::MemoryBytes() const {
  size_t bytes = features_.MemoryBytes() + cached_views_.MemoryBytes();
  for (const MatchPlan& plan : cached_plans_) bytes += plan.MemoryBytes();
  return bytes;
}

}  // namespace igq

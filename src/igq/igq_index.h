// The iGQ index over the cached query graphs: its subgraph component Isub
// (§4.2.1, §6.1) returns the cached queries G with g ⊆ G for a new query
// g, its supergraph component Isuper (§4.2.2, §6.2, Algorithms 1-2) the
// cached G with G ⊆ g. Both filter over one feature trie with occurrence
// counts — the same postings serve Isub's counting filter and Isuper's NF
// tally, so the trie is kept (and maintained) once — and verify candidates
// with the matching core, which satisfies assumptions (1) and (2) by
// construction.
#ifndef IGQ_IGQ_IGQ_INDEX_H_
#define IGQ_IGQ_IGQ_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "features/feature_set.h"
#include "features/path_enumerator.h"
#include "graph/csr_view.h"
#include "igq/query_record.h"
#include "isomorphism/match_core.h"
#include "methods/feature_count_index.h"

namespace igq {

/// Isub + Isuper over the cached query graphs.
///
/// Thread-safety: immutable between Build()/Relink() calls. The probes are
/// const and safe from any number of threads concurrently; Build() and
/// Relink() (and moving or copying into the index) require exclusive
/// access. The sharded cache relies on exactly this split — concurrent
/// probes under shard-shared locks, a copy relinked off-lock and swapped in
/// exclusively (docs/CONCURRENCY.md). The index keeps a pointer to the
/// `cached` vector it was last linked over: the vector object must stay at
/// the same address (not just the same contents) for the index's lifetime.
class IgqIndex {
 public:
  explicit IgqIndex(const PathEnumeratorOptions& options = {})
      : features_(options) {}

  /// Builds the index over `cached` from scratch: a Relink of an empty
  /// index with every entry new. Entries must carry their `features`.
  void Build(const std::vector<CachedQuery>& cached);

  /// Incremental §5.2 maintenance after a flush. `id_map` sends every
  /// previously indexed position to its position in `cached`, or to
  /// kDroppedId if evicted (common/id_map.h); the survivors fill
  /// cached[0, kept) in their old order and cached[kept, size) are the new
  /// entries. Evicted postings, views and plans go, the survivors' are
  /// renumbered, and only the new entries are indexed — from their stored
  /// `features` — and get a view and a plan. Tombstoned new entries get no
  /// postings. The result answers exactly as a fresh Build over `cached`
  /// would, provided no survivor was tombstoned or revived since it was
  /// indexed.
  void Relink(const std::vector<CachedQuery>& cached,
              std::span<const uint32_t> id_map);

  /// Isub: positions (into the linked vector) of cached queries G with
  /// query ⊆ G, verified. `query_features` must use the same enumerator
  /// options. `probe_tests` (optional) accumulates the number of
  /// verification tests run against cached graphs. The out-parameter
  /// overload appends to `result` (cleared first, capacity reused) and —
  /// with all intermediates in the calling thread's IdSetScratch — performs
  /// zero heap allocations in steady state (`bench_micro_core --smoke`).
  void FindSupergraphsOf(const Graph& query,
                         const PathFeatureCounts& query_features,
                         std::vector<size_t>* result,
                         size_t* probe_tests = nullptr) const;
  std::vector<size_t> FindSupergraphsOf(const Graph& query,
                                        const PathFeatureCounts& query_features,
                                        size_t* probe_tests = nullptr) const {
    std::vector<size_t> result;
    FindSupergraphsOf(query, query_features, &result, probe_tests);
    return result;
  }

  /// Isuper: positions of cached queries G with G ⊆ query, verified. Same
  /// conventions and the same zero-allocation steady state.
  void FindSubgraphsOf(const Graph& query,
                       const PathFeatureCounts& query_features,
                       std::vector<size_t>* result,
                       size_t* probe_tests = nullptr) const;
  std::vector<size_t> FindSubgraphsOf(const Graph& query,
                                      const PathFeatureCounts& query_features,
                                      size_t* probe_tests = nullptr) const {
    std::vector<size_t> result;
    FindSubgraphsOf(query, query_features, &result, probe_tests);
    return result;
  }

  size_t MemoryBytes() const;

 private:
  /// Feature trie with {entry, occurrences} postings + NF per entry.
  FeatureCountIndex features_;
  const std::vector<CachedQuery>* cached_ = nullptr;
  /// Isub's probe-test targets: CSR views of the cached graphs, built when
  /// an entry joins the index so no probe builds a view on the query path.
  CsrViewStore cached_views_;
  /// Isuper's probe-test patterns: search plans of the cached graphs (their
  /// variable orders are query-independent), compiled when an entry joins.
  std::vector<MatchPlan> cached_plans_;
};

}  // namespace igq

#endif  // IGQ_IGQ_IGQ_INDEX_H_

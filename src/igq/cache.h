// The iGQ query cache: Igraphs (cached query graphs + answers), the two
// sub-indexes Isub/Isuper, the metadata store, and the window-based
// maintenance with utility replacement (§5).
#ifndef IGQ_IGQ_CACHE_H_
#define IGQ_IGQ_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "features/feature_set.h"
#include "features/path_enumerator.h"
#include "igq/igq_index.h"
#include "igq/options.h"
#include "igq/query_record.h"

namespace igq {
namespace snapshot {
class BinaryReader;
class BinaryWriter;
}  // namespace snapshot

/// Result of probing the cache with a new query g.
struct CacheProbe {
  /// Positions of cached G with g ⊆ G (the Isub(g) set).
  std::vector<size_t> supergraph_positions;
  /// Positions of cached G with G ⊆ g (the Isuper(g) set).
  std::vector<size_t> subgraph_positions;
  /// Position of a cached query identical in size to g and related by
  /// containment — the §4.3 exact-match shortcut; SIZE_MAX if none.
  size_t exact_position = SIZE_MAX;
  /// VF2 tests run against cached graphs during the probe.
  size_t probe_iso_tests = 0;
};

/// Igraphs + Isub + Isuper + Stat(iGQ Graph) + Itemp, with the §5.2
/// maintenance protocol (batch window, utility eviction, index relink).
///
/// Thread-safety: none — this is the single-stream cache behind QueryEngine,
/// and every member (including the const accessors, which read state that
/// Insert/Flush mutate) assumes one caller at a time. Concurrent streams use
/// ShardedQueryCache (sharded_cache.h), which partitions this same state by
/// graph hash under reader–writer locks; the two caches share the record
/// format (SaveCachedQuery/LoadCachedQuery) and the §5.1 eviction scoring
/// (EvictionIdMap) so their maintenance picks identical victims for
/// identical state. See docs/CONCURRENCY.md for the full threading model.
class QueryCache {
 public:
  /// `universe` is the dataset size the cached answers index; it drives the
  /// answers' adaptive IdSet representation (array vs bitmap). 0 — unknown
  /// universe — is valid and keeps every answer in array form.
  explicit QueryCache(const IgqOptions& options, size_t universe = 0);

  // The index holds a pointer to entries_; keep the object pinned.
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Extracts the path features the probe needs (shared with callers so the
  /// extraction happens once per query).
  PathFeatureCounts ExtractFeatures(const Graph& query) const;

  /// Looks up sub/supergraph relationships between `query` and the cached
  /// queries. Does not see window (Itemp) entries — they become visible
  /// after the next flush, as in the paper.
  CacheProbe Probe(const Graph& query,
                   const PathFeatureCounts& query_features) const;

  /// Exact-hit fast path: position of the flushed entry whose canonical code
  /// equals `canonical` (an isomorphic cached query), or SIZE_MAX. One hash
  /// lookup — no feature extraction, no probe, no isomorphism test. Sees
  /// exactly the entries Probe sees (flushed only, window excluded), and the
  /// exact-match shortcut (§4.3) makes canonical-key equality equivalent to
  /// the probe's containment + size test, so the hit sequence is identical
  /// to the pre-key isomorphism path.
  size_t FindExactByKey(const std::string& canonical) const;

  /// Advances the global query counter (the denominator clock for M(g)).
  void RecordQueryProcessed() { ++queries_processed_; }

  /// Metadata update for a cached graph that was hit (H += 1).
  void CreditHit(size_t position);

  /// Metadata update: `removed` candidate graphs pruned thanks to the
  /// cached graph, with total analytic cost `cost` (C += cost, R += removed).
  void CreditPrune(size_t position, uint64_t removed, LogValue cost);

  /// The one §5.1 crediting site for an exact hit: H += 1, R += removed,
  /// C += cost in a single call. Engines must use this — not CreditHit +
  /// CreditPrune at the call site — so the fast path and the probe fallback
  /// cannot double-count a hit (tests/cache_test.cc pins single-counting).
  void CreditExactHit(size_t position, uint64_t removed, LogValue cost);

  /// Queues the executed query and its answer into Itemp; when the window
  /// fills, triggers Flush() — synchronously, on this call. Duplicates
  /// (structurally equal graphs) already queued in the window are dropped.
  /// Returns the microseconds this call spent in Flush() (0 when it did not
  /// flush), i.e. the growth of maintenance_micros(). The two-argument form
  /// computes the canonical key and the path features itself; engines pass
  /// the key they already computed for the fast-path lookup and the
  /// features they extracted for the probe (ExtractFeatures).
  int64_t Insert(const Graph& query, std::vector<GraphId> answer);
  int64_t Insert(const Graph& query, std::vector<GraphId> answer,
                 std::string canonical, const PathFeatureCounts& features);

  /// Forces window integration: evicts the lowest-utility graphs to respect
  /// the capacity, appends the window after the survivors, relinks Isub and
  /// Isuper (evicted postings dropped, survivors renumbered, only the window
  /// entries indexed — from their stored features) and clears Itemp.
  void Flush();

  /// Dataset-mutation patching: instead of flushing the cache when the
  /// dataset changes, every cached answer is patched in place so hit rate
  /// and §5.1 metadata survive the mutation.
  ///
  /// ApplyGraphAdded: `graph` was appended to the dataset under `id`
  /// (== old dataset size). The cache's own probe indexes find the cached
  /// queries whose answers gain the new graph — in the subgraph direction
  /// answer(q) = {G : q ⊆ G}, so `id` joins every answer whose query is a
  /// subgraph of `graph` (Isuper probe); in the supergraph direction
  /// answer(q) = {G : G ⊆ q}, so `id` joins where `graph` ⊆ q (Isub probe).
  /// Window (Itemp) entries are not in the probe indexes and are tested
  /// directly. Every answer is re-derived over the grown universe, so the
  /// adaptive representation stays canonical.
  void ApplyGraphAdded(const Graph& graph, GraphId id,
                       QueryDirection direction);

  /// ApplyGraphRemoved: dataset graph `id` was tombstoned; it is dropped
  /// eagerly from every cached and windowed answer that contains it. The
  /// probe indexes are untouched (they index the cached QUERY graphs, which
  /// did not change).
  void ApplyGraphRemoved(GraphId id);

  const std::vector<CachedQuery>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  size_t window_fill() const { return window_.size(); }
  uint64_t queries_processed() const { return queries_processed_; }

  /// Total time spent in Flush() and in Load()'s index build. Flushes run on
  /// the query path — inside the Insert of the query that fills the window,
  /// and so inside that query's latency (QueryStats::maintenance_micros).
  int64_t maintenance_micros() const { return maintenance_micros_; }

  /// Heap footprint of the cache indexes + stored graphs and their stored
  /// features (Fig. 18).
  size_t MemoryBytes() const;

  /// Serializes the complete behavioral state: every cached entry (graph,
  /// answer, §5.1 metadata incl. utility inputs), the pending window
  /// (Itemp), and the query/id counters. `num_graphs` and `dataset_crc`
  /// (size and content fingerprint of the dataset the answers refer to,
  /// see snapshot::DatasetFingerprint) are stamped into the payload.
  /// Isub/Isuper and the entries' path features are NOT serialized — they
  /// are derived data, rebuilt on load.
  void Save(snapshot::BinaryWriter& writer, uint64_t num_graphs,
            uint32_t dataset_crc) const;

  /// Restores state saved by Save(), recomputes every entry's path features
  /// and builds Isub/Isuper over the restored entries. An engine restored this way replays a query
  /// stream with the same hits, prunes, and replacement victims as the one
  /// that produced the snapshot. Returns false — leaving this cache
  /// unchanged — on malformed input, a dataset size or content-fingerprint
  /// mismatch (answer ids are also individually bounds-checked against
  /// `num_graphs`), or a snapshot taken under different cache options
  /// (path_max_edges, capacity, window size, or replacement policy), any
  /// of which would break replay identity.
  bool Load(snapshot::BinaryReader& reader, uint64_t num_graphs,
            uint32_t dataset_crc);

 private:
  /// Rebuilds canonical_index_ over the flushed entries (first — lowest —
  /// position wins, matching the probe's ascending exact scan when two
  /// isomorphic copies slipped through the same window).
  void RebuildCanonicalIndex();

  IgqOptions options_;
  size_t universe_ = 0;  // dataset size the answers index
  PathEnumeratorOptions enumerator_options_;
  std::vector<CachedQuery> entries_;
  std::vector<CachedQuery> window_;  // Itemp
  IgqIndex index_;  // Isub + Isuper
  /// canonical code -> position in entries_, rebuilt on Flush/Load next to
  /// the probe indexes (it is derived data too). Flushed entries only.
  std::unordered_map<std::string, size_t> canonical_index_;
  uint64_t queries_processed_ = 0;
  uint64_t next_id_ = 0;
  int64_t maintenance_micros_ = 0;
};

/// §5.1 victim selection: the old->new position map (common/id_map.h) of a
/// flush that keeps `keep` of `entries` when the global query counter reads
/// `now`. The rest — lowest eviction score first, the older id first on a
/// tie — map to kDroppedId; survivors keep their order. The score is
/// U(g) = C(g)/M(g) in log space under kUtility (the paper's policy); the
/// other policies back the replacement ablation. Shared by QueryCache::Flush
/// and the sharded cache's deferred maintenance so both pick identical
/// victims for identical state.
std::vector<uint32_t> EvictionIdMap(ReplacementPolicy policy,
                                    const std::vector<CachedQuery>& entries,
                                    uint64_t now, size_t keep);

/// Serializes one cached-query record (graph, canonical key, sorted answer,
/// §5.1 metadata) in the snapshot record format shared by QueryCache and
/// ShardedQueryCache (docs/FORMATS.md, record version 2).
void SaveCachedQuery(snapshot::BinaryWriter& writer, const CachedQuery& record);

/// Restores a record written by SaveCachedQuery. `with_canonical` selects
/// the record version: true reads the stored canonical key (version 2 —
/// trusted, the section CRC already vouches for it), false recomputes it
/// from the graph (version-1 records from pre-key snapshots). Returns false
/// on malformed bytes, an answer id outside [0, num_graphs), or an unsorted
/// answer.
bool LoadCachedQuery(snapshot::BinaryReader& reader, CachedQuery* record,
                     uint64_t num_graphs, bool with_canonical);

}  // namespace igq

#endif  // IGQ_IGQ_CACHE_H_

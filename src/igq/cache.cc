#include "igq/cache.h"

#include <algorithm>
#include <numeric>

#include "common/id_map.h"
#include "common/timer.h"
#include "features/canonical.h"
#include "isomorphism/match_core.h"
#include "snapshot/serializer.h"

namespace igq {
namespace {

/// Payload version of the serialized cache state. Version 2 added the
/// canonical key to every record; version-1 payloads are still accepted,
/// recomputing the keys from the stored graphs (docs/FORMATS.md).
constexpr uint32_t kCacheStateVersion = 2;
constexpr uint32_t kCacheStateVersionNoCanonical = 1;

/// §5.1 eviction score of `entry` under `policy` when the global query
/// counter reads `now`: lower evicts first.
double EvictionScore(ReplacementPolicy policy, const CachedQuery& entry,
                     uint64_t now) {
  const QueryGraphMetadata& meta = entry.meta;
  switch (policy) {
    case ReplacementPolicy::kUtility:
      return meta.Utility(now).log();
    case ReplacementPolicy::kPopularity:
      return static_cast<double>(meta.hits) /
             static_cast<double>(meta.QueriesSinceInsertion(now));
    case ReplacementPolicy::kLru:
      return static_cast<double>(meta.last_hit_at);
    case ReplacementPolicy::kFifo:
      return static_cast<double>(entry.id);
  }
  return 0.0;
}

}  // namespace

void SaveCachedQuery(snapshot::BinaryWriter& writer,
                     const CachedQuery& record) {
  writer.WriteU64(record.id);
  snapshot::WriteGraph(writer, record.graph);
  writer.WriteString(record.canonical);
  // Answers are written as sorted id arrays regardless of their in-memory
  // representation (docs/FORMATS.md): the encoding predates the adaptive
  // IdSet and stays byte-identical.
  writer.WriteU64(record.answer.size());
  record.answer.ForEach([&writer](GraphId id) { writer.WriteU32(id); });
  writer.WriteU64(record.meta.hits);
  writer.WriteU64(record.meta.inserted_at);
  writer.WriteU64(record.meta.removed_candidates);
  writer.WriteDouble(record.meta.cost_saved.log());
  writer.WriteU64(record.meta.last_hit_at);
}

bool LoadCachedQuery(snapshot::BinaryReader& reader, CachedQuery* record,
                     uint64_t num_graphs, bool with_canonical) {
  if (!reader.ReadU64(&record->id)) return false;
  if (!snapshot::ReadGraph(reader, &record->graph)) return false;
  if (with_canonical) {
    if (!reader.ReadString(&record->canonical)) return false;
  } else {
    // Version-1 record: the key did not exist yet; derive it so older
    // snapshots restore into a fully keyed cache.
    record->canonical = GraphCanonicalCode(record->graph);
  }
  uint64_t answer_size = 0;
  if (!reader.ReadU64(&answer_size)) return false;
  std::vector<GraphId> answer_ids;
  answer_ids.reserve(static_cast<size_t>(std::min<uint64_t>(answer_size, 1024)));
  for (uint64_t i = 0; i < answer_size; ++i) {
    uint32_t id = 0;
    if (!reader.ReadU32(&id)) return false;
    if (id >= num_graphs) return false;  // answer ids index the dataset
    if (i > 0 && id <= answer_ids.back()) {
      return false;  // answers must be sorted ascending, no duplicates
    }
    answer_ids.push_back(id);
  }
  // Validated sorted-unique above; the in-memory representation re-adapts
  // to the restored answer's density.
  record->answer =
      IdSet::FromSortedUnique(std::move(answer_ids), num_graphs);
  double cost_saved_log = 0;
  if (!reader.ReadU64(&record->meta.hits) ||
      !reader.ReadU64(&record->meta.inserted_at) ||
      !reader.ReadU64(&record->meta.removed_candidates) ||
      !reader.ReadDouble(&cost_saved_log) ||
      !reader.ReadU64(&record->meta.last_hit_at)) {
    return false;
  }
  record->meta.cost_saved = LogValue::FromLog(cost_saved_log);
  return true;
}

std::vector<uint32_t> EvictionIdMap(ReplacementPolicy policy,
                                    const std::vector<CachedQuery>& entries,
                                    uint64_t now, size_t keep) {
  std::vector<uint32_t> id_map(entries.size());
  std::iota(id_map.begin(), id_map.end(), 0);
  if (entries.size() <= keep) return id_map;
  // Scores are computed once per entry, not per comparison.
  std::vector<double> scores(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    scores[i] = EvictionScore(policy, entries[i], now);
  }
  std::vector<size_t> order(entries.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&scores, &entries](size_t a, size_t b) {
                     if (scores[a] != scores[b]) return scores[a] < scores[b];
                     return entries[a].id < entries[b].id;  // older first
                   });
  for (size_t i = 0; i < entries.size() - keep; ++i) {
    id_map[order[i]] = kDroppedId;
  }
  uint32_t next = 0;
  for (uint32_t& id : id_map) {
    if (id != kDroppedId) id = next++;
  }
  return id_map;
}

QueryCache::QueryCache(const IgqOptions& options, size_t universe)
    : options_(options), universe_(universe) {
  enumerator_options_.max_edges = options.path_max_edges;
  enumerator_options_.include_single_vertices = true;
  index_ = IgqIndex(enumerator_options_);
}

PathFeatureCounts QueryCache::ExtractFeatures(const Graph& query) const {
  return CountPathFeatures(query, enumerator_options_);
}

CacheProbe QueryCache::Probe(const Graph& query,
                             const PathFeatureCounts& query_features) const {
  CacheProbe probe;
  if (entries_.empty()) return probe;
  index_.FindSupergraphsOf(query, query_features,
                           &probe.supergraph_positions, &probe.probe_iso_tests);
  index_.FindSubgraphsOf(query, query_features, &probe.subgraph_positions,
                         &probe.probe_iso_tests);

  // Exact-match shortcut (§4.3): g related to G by containment and equal in
  // node and edge count means g and G are isomorphic.
  auto is_exact = [this, &query](size_t position) {
    const Graph& g = entries_[position].graph;
    return g.NumVertices() == query.NumVertices() &&
           g.NumEdges() == query.NumEdges();
  };
  for (size_t position : probe.supergraph_positions) {
    if (is_exact(position)) {
      probe.exact_position = position;
      return probe;
    }
  }
  for (size_t position : probe.subgraph_positions) {
    if (is_exact(position)) {
      probe.exact_position = position;
      return probe;
    }
  }
  return probe;
}

void QueryCache::CreditHit(size_t position) {
  QueryGraphMetadata& meta = entries_[position].meta;
  ++meta.hits;
  meta.last_hit_at = queries_processed_;
}

void QueryCache::CreditPrune(size_t position, uint64_t removed,
                             LogValue cost) {
  QueryGraphMetadata& meta = entries_[position].meta;
  meta.removed_candidates += removed;
  meta.cost_saved += cost;
}

void QueryCache::CreditExactHit(size_t position, uint64_t removed,
                                LogValue cost) {
  QueryGraphMetadata& meta = entries_[position].meta;
  ++meta.hits;
  meta.last_hit_at = queries_processed_;
  meta.removed_candidates += removed;
  meta.cost_saved += cost;
}

size_t QueryCache::FindExactByKey(const std::string& canonical) const {
  const auto it = canonical_index_.find(canonical);
  return it == canonical_index_.end() ? SIZE_MAX : it->second;
}

int64_t QueryCache::Insert(const Graph& query, std::vector<GraphId> answer) {
  return Insert(query, std::move(answer), GraphCanonicalCode(query),
                ExtractFeatures(query));
}

int64_t QueryCache::Insert(const Graph& query, std::vector<GraphId> answer,
                           std::string canonical,
                           const PathFeatureCounts& features) {
  for (const CachedQuery& queued : window_) {
    if (queued.graph == query) return 0;  // window-level duplicate
  }
  CachedQuery record;
  record.id = next_id_++;
  record.graph = query;
  record.canonical = std::move(canonical);
  record.features = SortPathFeatures(features);
  // FromIds is the one shared normalization path (also used by the sharded
  // cache): it detects the already-sorted answers the engines produce in
  // one pass instead of unconditionally re-sorting, and picks the adaptive
  // representation.
  record.answer = IdSet::FromIds(std::move(answer), universe_);
  record.meta.inserted_at = queries_processed_;
  window_.push_back(std::move(record));
  if (window_.size() < options_.window_size) return 0;
  const int64_t before = maintenance_micros_;
  Flush();
  return maintenance_micros_ - before;
}

void QueryCache::Flush() {
  if (window_.empty()) return;
  Timer timer;

  // Eviction (§5.1): only pre-existing entries compete; the incoming window
  // always enters so fresh queries get a chance to accumulate utility. The
  // survivors keep their order and the window follows them, so one
  // monotone old->new position map describes the whole change.
  const size_t incoming = window_.size();
  const size_t target_old =
      options_.cache_capacity > incoming ? options_.cache_capacity - incoming
                                         : 0;
  const std::vector<uint32_t> id_map = EvictionIdMap(
      options_.replacement_policy, entries_, queries_processed_, target_old);
  CompactByIdMap(entries_, id_map);

  for (CachedQuery& record : window_) entries_.push_back(std::move(record));
  window_.clear();

  // Index maintenance (§5.2) by relink: evicted postings drop out, the
  // survivors' are renumbered, and only the window entries are indexed —
  // from the features their own probes extracted. The result answers
  // exactly as a rebuild over the new Igraphs would.
  index_.Relink(entries_, id_map);
  RebuildCanonicalIndex();

  maintenance_micros_ += timer.ElapsedMicros();
}

void QueryCache::RebuildCanonicalIndex() {
  canonical_index_.clear();
  canonical_index_.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    canonical_index_.try_emplace(entries_[i].canonical, i);
  }
}

void QueryCache::ApplyGraphAdded(const Graph& graph, GraphId id,
                                 QueryDirection direction) {
  universe_ = static_cast<size_t>(id) + 1;
  // The probe indexes already verify containment with PlanContains, so
  // their results are exact relationships, not candidates.
  std::vector<size_t> affected;
  if (!entries_.empty()) {
    const PathFeatureCounts features = ExtractFeatures(graph);
    size_t probe_tests = 0;
    if (direction == QueryDirection::kSubgraph) {
      index_.FindSubgraphsOf(graph, features, &affected, &probe_tests);
    } else {
      index_.FindSupergraphsOf(graph, features, &affected, &probe_tests);
    }
  }
  std::vector<uint8_t> gains(entries_.size(), 0);
  for (size_t position : affected) gains[position] = 1;

  // `id` is larger than every existing member, so appending keeps the
  // materialized answer sorted; re-deriving over the grown universe keeps
  // the adaptive representation canonical for ALL entries (a bitmap's
  // density threshold moved with the universe).
  auto repatch = [this, id](CachedQuery& entry, bool gains_id) {
    std::vector<GraphId> ids = entry.answer.ToVector();
    if (gains_id) ids.push_back(id);
    entry.answer = IdSet::FromSortedUnique(std::move(ids), universe_);
  };
  for (size_t i = 0; i < entries_.size(); ++i) repatch(entries_[i], gains[i]);

  // Window entries are invisible to the probe indexes until the next flush;
  // test them directly (both compiled halves live in this thread's match
  // scratch, as in the probe indexes). The new graph is the same half of
  // every test, so it is laid out once, not once per window entry.
  MatchContext& ctx = MatchContext::ThreadLocal();
  MatchPlan& plan = ctx.scratch_plan();
  CsrGraphView& view = ctx.scratch_target();
  const bool subgraph = direction == QueryDirection::kSubgraph;
  if (subgraph) {
    view.Assign(graph);  // q ⊆ new graph: the new graph is the target
  } else {
    plan.Compile(graph);  // new graph ⊆ q: the new graph is the pattern
  }
  for (CachedQuery& queued : window_) {
    if (subgraph) {
      plan.Compile(queued.graph);
    } else {
      view.Assign(queued.graph);
    }
    repatch(queued, PlanContains(plan, view, ctx));
  }
}

void QueryCache::ApplyGraphRemoved(GraphId id) {
  auto drop = [this, id](CachedQuery& entry) {
    if (!entry.answer.contains(id)) return;
    std::vector<GraphId> ids = entry.answer.ToVector();
    ids.erase(std::lower_bound(ids.begin(), ids.end(), id));
    entry.answer = IdSet::FromSortedUnique(std::move(ids), universe_);
  };
  for (CachedQuery& entry : entries_) drop(entry);
  for (CachedQuery& queued : window_) drop(queued);
}

void QueryCache::Save(snapshot::BinaryWriter& writer, uint64_t num_graphs,
                      uint32_t dataset_crc) const {
  writer.WriteU32(kCacheStateVersion);
  writer.WriteU32(static_cast<uint32_t>(options_.path_max_edges));
  writer.WriteU64(options_.cache_capacity);
  writer.WriteU64(options_.window_size);
  writer.WriteU8(static_cast<uint8_t>(options_.replacement_policy));
  writer.WriteU64(num_graphs);
  writer.WriteU32(dataset_crc);
  writer.WriteU64(queries_processed_);
  writer.WriteU64(next_id_);
  writer.WriteU64(entries_.size());
  for (const CachedQuery& record : entries_) SaveCachedQuery(writer, record);
  writer.WriteU64(window_.size());
  for (const CachedQuery& record : window_) SaveCachedQuery(writer, record);
}

bool QueryCache::Load(snapshot::BinaryReader& reader, uint64_t num_graphs,
                      uint32_t dataset_crc) {
  uint32_t version = 0, path_max_edges = 0;
  if (!reader.ReadU32(&version)) return false;
  if (version != kCacheStateVersion &&
      version != kCacheStateVersionNoCanonical) {
    return false;
  }
  const bool with_canonical = version == kCacheStateVersion;
  if (!reader.ReadU32(&path_max_edges) ||
      path_max_edges != options_.path_max_edges) {
    return false;
  }
  // Replay identity requires the full cache geometry to match, not just
  // the feature length: capacity and window drive flush cadence and
  // eviction counts, the policy picks the victims.
  uint64_t cache_capacity = 0, window_size = 0;
  uint8_t policy = 0;
  if (!reader.ReadU64(&cache_capacity) || !reader.ReadU64(&window_size) ||
      !reader.ReadU8(&policy)) {
    return false;
  }
  if (cache_capacity != options_.cache_capacity ||
      window_size != options_.window_size ||
      policy != static_cast<uint8_t>(options_.replacement_policy)) {
    return false;
  }
  // Answers are ids into the dataset the snapshot was taken over; loading
  // them against a different dataset — even one of the same size — would
  // be silently wrong results, so both size and content must match.
  uint64_t stamped_num_graphs = 0;
  uint32_t stamped_crc = 0;
  if (!reader.ReadU64(&stamped_num_graphs) || stamped_num_graphs != num_graphs) {
    return false;
  }
  if (!reader.ReadU32(&stamped_crc) || stamped_crc != dataset_crc) {
    return false;
  }
  uint64_t queries_processed = 0, next_id = 0;
  if (!reader.ReadU64(&queries_processed) || !reader.ReadU64(&next_id)) {
    return false;
  }
  uint64_t num_entries = 0;
  if (!reader.ReadU64(&num_entries)) return false;
  std::vector<CachedQuery> entries;
  entries.reserve(static_cast<size_t>(std::min<uint64_t>(num_entries, 1024)));
  for (uint64_t i = 0; i < num_entries; ++i) {
    CachedQuery record;
    if (!LoadCachedQuery(reader, &record, num_graphs, with_canonical)) {
      return false;
    }
    record.features = SortPathFeatures(ExtractFeatures(record.graph));
    entries.push_back(std::move(record));
  }
  uint64_t num_window = 0;
  if (!reader.ReadU64(&num_window)) return false;
  std::vector<CachedQuery> window;
  window.reserve(static_cast<size_t>(std::min<uint64_t>(num_window, 1024)));
  for (uint64_t i = 0; i < num_window; ++i) {
    CachedQuery record;
    if (!LoadCachedQuery(reader, &record, num_graphs, with_canonical)) {
      return false;
    }
    record.features = SortPathFeatures(ExtractFeatures(record.graph));
    window.push_back(std::move(record));
  }

  // Commit, then build the derived sub-indexes over the restored Igraphs
  // (the flush's relink, with every entry new) — the window stays
  // invisible until its next flush, exactly as on the engine that produced
  // the snapshot.
  entries_ = std::move(entries);
  window_ = std::move(window);
  queries_processed_ = queries_processed;
  next_id_ = next_id;
  Timer timer;
  index_.Build(entries_);
  RebuildCanonicalIndex();
  maintenance_micros_ += timer.ElapsedMicros();
  return true;
}

size_t QueryCache::MemoryBytes() const {
  size_t bytes = sizeof(*this) + index_.MemoryBytes();
  for (const CachedQuery& record : entries_) {
    bytes += record.graph.MemoryBytes();
    bytes += record.answer.MemoryBytes();
    bytes += record.canonical.capacity();
    bytes += record.features.capacity() * sizeof(record.features[0]);
    bytes += sizeof(CachedQuery);
  }
  // The exact-hit map: one bucket + stored key per flushed entry.
  bytes += canonical_index_.size() *
           (sizeof(std::pair<std::string, size_t>) + sizeof(void*));
  return bytes;
}

}  // namespace igq

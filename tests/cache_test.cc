// Tests for the query cache: window mechanics, utility-based replacement
// (§5.1), probe semantics, exact-match detection, maintenance accounting,
// and the flush's incremental Isub/Isuper relink (§5.2) against indexes
// built from scratch.
#include "igq/cache.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/id_map.h"
#include "features/canonical.h"
#include "igq/engine.h"
#include "methods/path_trie.h"
#include "methods/registry.h"
#include "snapshot/serializer.h"
#include "tests/test_util.h"

namespace igq {
namespace {

using testing::PathGraph;
using testing::PermuteVertices;
using testing::RandomConnectedGraph;
using testing::RandomSubgraphOf;
using testing::StarGraph;

IgqOptions SmallOptions(size_t capacity, size_t window) {
  IgqOptions options;
  options.cache_capacity = capacity;
  options.window_size = window;
  return options;
}

TEST(QueryCacheTest, WindowHoldsUntilFull) {
  QueryCache cache(SmallOptions(10, 3));
  cache.Insert(PathGraph({0, 1}), {});
  cache.Insert(PathGraph({1, 2}), {});
  EXPECT_EQ(cache.size(), 0u);  // still in Itemp
  EXPECT_EQ(cache.window_fill(), 2u);
  cache.Insert(PathGraph({2, 3}), {});
  EXPECT_EQ(cache.size(), 3u);  // flushed
  EXPECT_EQ(cache.window_fill(), 0u);
}

TEST(QueryCacheTest, ProbeSeesOnlyFlushedEntries) {
  QueryCache cache(SmallOptions(10, 2));
  const Graph big = PathGraph({0, 1, 2, 3});
  cache.Insert(big, {5, 7});
  const Graph small = PathGraph({1, 2});
  CacheProbe probe = cache.Probe(small, cache.ExtractFeatures(small));
  EXPECT_TRUE(probe.supergraph_positions.empty());  // big still in window
  cache.Insert(PathGraph({8, 9}), {});              // triggers flush
  probe = cache.Probe(small, cache.ExtractFeatures(small));
  ASSERT_EQ(probe.supergraph_positions.size(), 1u);
  EXPECT_EQ(cache.entries()[probe.supergraph_positions[0]].graph, big);
}

TEST(QueryCacheTest, ProbeFindsSubgraphsToo) {
  QueryCache cache(SmallOptions(10, 1));
  const Graph small = PathGraph({1, 2});
  cache.Insert(small, {3});
  const Graph big = PathGraph({0, 1, 2, 3});
  const CacheProbe probe = cache.Probe(big, cache.ExtractFeatures(big));
  ASSERT_EQ(probe.subgraph_positions.size(), 1u);
  EXPECT_TRUE(probe.supergraph_positions.empty());
}

TEST(QueryCacheTest, ExactMatchDetected) {
  QueryCache cache(SmallOptions(10, 1));
  const Graph q = PathGraph({1, 2, 3});
  cache.Insert(q, {1});
  const CacheProbe probe = cache.Probe(q, cache.ExtractFeatures(q));
  EXPECT_NE(probe.exact_position, SIZE_MAX);
}

TEST(QueryCacheTest, IsomorphicButDifferentOrderIsStillExact) {
  QueryCache cache(SmallOptions(10, 1));
  cache.Insert(PathGraph({1, 2, 3}), {1});
  // Same path written from the other end: isomorphic, equal sizes, and a
  // containment holds — the §4.3 definition of "exactly the same".
  const Graph reversed = PathGraph({3, 2, 1});
  const CacheProbe probe =
      cache.Probe(reversed, cache.ExtractFeatures(reversed));
  EXPECT_NE(probe.exact_position, SIZE_MAX);
}

TEST(QueryCacheTest, WindowDeduplicatesEqualGraphs) {
  QueryCache cache(SmallOptions(10, 3));
  const Graph q = PathGraph({1, 2});
  cache.Insert(q, {1});
  cache.Insert(q, {1});
  EXPECT_EQ(cache.window_fill(), 1u);
}

TEST(QueryCacheTest, CapacityEnforcedAfterFlush) {
  QueryCache cache(SmallOptions(4, 2));
  for (int i = 0; i < 10; ++i) {
    Graph g = PathGraph({static_cast<Label>(i), static_cast<Label>(i + 1)});
    cache.Insert(g, {});
  }
  EXPECT_LE(cache.size(), 4u);
}

TEST(QueryCacheTest, LowestUtilityEvictedFirst) {
  QueryCache cache(SmallOptions(2, 1));
  const Graph a = PathGraph({1, 1});
  const Graph b = PathGraph({2, 2});
  cache.Insert(a, {});  // flushes immediately (W = 1)
  cache.Insert(b, {});
  ASSERT_EQ(cache.size(), 2u);

  // Give `b` utility; `a` stays at zero.
  size_t b_position = SIZE_MAX;
  for (size_t i = 0; i < cache.entries().size(); ++i) {
    if (cache.entries()[i].graph == b) b_position = i;
  }
  ASSERT_NE(b_position, SIZE_MAX);
  cache.RecordQueryProcessed();
  cache.CreditHit(b_position);
  cache.CreditPrune(b_position, 5, LogValue::FromLinear(1e6));

  // Insert c: capacity 2 forces one eviction; it must be `a`.
  const Graph c = PathGraph({3, 3});
  cache.Insert(c, {});
  ASSERT_EQ(cache.size(), 2u);
  bool has_a = false, has_b = false, has_c = false;
  for (const CachedQuery& entry : cache.entries()) {
    has_a |= entry.graph == a;
    has_b |= entry.graph == b;
    has_c |= entry.graph == c;
  }
  EXPECT_FALSE(has_a);
  EXPECT_TRUE(has_b);
  EXPECT_TRUE(has_c);
}

TEST(QueryCacheTest, TieBreakEvictsOlderEntry) {
  QueryCache cache(SmallOptions(2, 1));
  const Graph a = PathGraph({1, 1});
  const Graph b = PathGraph({2, 2});
  cache.Insert(a, {});
  cache.Insert(b, {});
  cache.Insert(PathGraph({3, 3}), {});  // both a and b have utility 0
  bool has_a = false;
  for (const CachedQuery& entry : cache.entries()) has_a |= entry.graph == a;
  EXPECT_FALSE(has_a) << "older zero-utility entry should go first";
}

TEST(QueryCacheTest, MetadataClockAdvances) {
  QueryCache cache(SmallOptions(4, 1));
  cache.Insert(PathGraph({1, 2}), {});
  cache.RecordQueryProcessed();
  cache.RecordQueryProcessed();
  const QueryGraphMetadata& meta = cache.entries()[0].meta;
  EXPECT_EQ(meta.QueriesSinceInsertion(cache.queries_processed()), 2u);
}

TEST(QueryCacheTest, UtilityUsesCostOverM) {
  QueryGraphMetadata meta;
  meta.inserted_at = 0;
  meta.cost_saved = LogValue::FromLinear(100.0);
  EXPECT_NEAR(meta.Utility(4).ToLinear(), 25.0, 1e-9);
  // More elapsed queries, lower utility.
  EXPECT_TRUE(meta.Utility(10) < meta.Utility(4));
}

TEST(QueryCacheTest, MaintenanceTimeTracked) {
  QueryCache cache(SmallOptions(4, 1));
  cache.Insert(PathGraph({1, 2}), {});
  EXPECT_GE(cache.maintenance_micros(), 0);
}

TEST(QueryCacheTest, MemoryBytesGrowWithEntries) {
  QueryCache cache(SmallOptions(100, 1));
  const size_t before = cache.MemoryBytes();
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    cache.Insert(RandomConnectedGraph(rng, 10, 5, 3), {1, 2, 3});
  }
  EXPECT_GT(cache.MemoryBytes(), before);
}

TEST(QueryCacheTest, AnswersStoredSorted) {
  QueryCache cache(SmallOptions(4, 1));
  cache.Insert(PathGraph({1, 2}), {9, 3, 7});
  const std::vector<GraphId> expected{3, 7, 9};
  EXPECT_EQ(cache.entries()[0].answer.ToVector(), expected);
}

// ---- Canonical-key exact-hit fast path. ----

TEST(QueryCacheTest, CanonicalKeyLookupMatchesProbeExactPath) {
  // Parity with the pre-key isomorphism path: for any query, the canonical
  // map and the probe's §4.3 exact scan must agree — same hit/miss, same
  // position. Permuted copies of cached graphs exercise the hit side,
  // fresh random graphs the (mostly) miss side.
  QueryCache cache(SmallOptions(64, 4));
  Rng rng(21);
  std::vector<Graph> cached;
  for (int i = 0; i < 24; ++i) {
    cached.push_back(RandomConnectedGraph(rng, 5 + rng.Below(6),
                                          3 + rng.Below(4), 3));
    cache.Insert(cached.back(), {static_cast<GraphId>(i)});
  }
  cache.Flush();
  size_t hits = 0;
  for (int i = 0; i < 200; ++i) {
    const Graph query =
        rng.Chance(0.5)
            ? PermuteVertices(rng, cached[rng.Below(cached.size())])
            : RandomConnectedGraph(rng, 5 + rng.Below(6), 3 + rng.Below(4),
                                   3);
    const size_t by_key = cache.FindExactByKey(GraphCanonicalCode(query));
    const CacheProbe probe = cache.Probe(query, cache.ExtractFeatures(query));
    EXPECT_EQ(by_key, probe.exact_position);
    if (by_key != SIZE_MAX) ++hits;
  }
  EXPECT_GT(hits, 50u);  // the parity above must have covered real hits
}

TEST(QueryCacheTest, FindExactByKeySeesFlushedEntriesOnly) {
  QueryCache cache(SmallOptions(10, 2));
  const Graph q = PathGraph({1, 2, 3});
  const std::string key = GraphCanonicalCode(q);
  cache.Insert(q, {1});
  EXPECT_EQ(cache.FindExactByKey(key), SIZE_MAX);  // still in Itemp
  cache.Insert(PathGraph({7, 8}), {});             // triggers flush
  EXPECT_NE(cache.FindExactByKey(key), SIZE_MAX);
}

TEST(QueryCacheTest, CreditExactHitCountsOnce) {
  // The one §5.1 crediting site: a single exact hit moves H, R, C, and the
  // LRU clock exactly once — the engine no longer splits the update across
  // CreditHit + CreditPrune call sites that could drift apart.
  QueryCache cache(SmallOptions(4, 1));
  const Graph q = PathGraph({1, 2, 3});
  cache.Insert(q, {1, 4});
  ASSERT_EQ(cache.size(), 1u);
  cache.RecordQueryProcessed();
  const size_t position = cache.FindExactByKey(GraphCanonicalCode(q));
  ASSERT_EQ(position, 0u);
  cache.CreditExactHit(position, 7, LogValue::FromLinear(100.0));
  const QueryGraphMetadata& meta = cache.entries()[0].meta;
  EXPECT_EQ(meta.hits, 1u);
  EXPECT_EQ(meta.removed_candidates, 7u);
  EXPECT_EQ(meta.last_hit_at, 1u);
  EXPECT_NEAR(meta.cost_saved.ToLinear(), 100.0, 1e-6);
}

TEST(QueryCacheTest, EngineExactHitRunsZeroIsomorphismTests) {
  Rng rng(33);
  GraphDatabase db;
  for (int i = 0; i < 12; ++i) {
    db.graphs.push_back(RandomConnectedGraph(rng, 12, 6, 3));
  }
  db.RefreshLabelCount();
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.cache_capacity = 16;
  options.window_size = 1;  // every insert flushes: the repeat can hit
  QueryEngine engine(db, method.get(), options);

  const Graph query = RandomSubgraphOf(rng, db.graphs[0], 6);
  QueryStats miss_stats, hit_stats;
  const std::vector<GraphId> answer = engine.Process(query, &miss_stats);
  EXPECT_EQ(miss_stats.shortcut, ShortcutKind::kNone);

  // An isomorphic (vertex-permuted) repeat takes the canonical-key fast
  // path: same answer, and zero isomorphism tests of either kind — neither
  // verification (iso_tests) nor probe-side VF2 (probe_iso_tests).
  const Graph permuted = PermuteVertices(rng, query);
  EXPECT_EQ(engine.Process(permuted, &hit_stats), answer);
  EXPECT_EQ(hit_stats.shortcut, ShortcutKind::kExactHit);
  EXPECT_EQ(hit_stats.iso_tests, 0u);
  EXPECT_EQ(hit_stats.probe_iso_tests, 0u);

  // Single counting, end to end: two exact hits leave H at exactly 2.
  EXPECT_EQ(engine.Process(query), answer);
  const size_t position =
      engine.cache().FindExactByKey(GraphCanonicalCode(query));
  ASSERT_NE(position, SIZE_MAX);
  EXPECT_EQ(engine.cache().entries()[position].meta.hits, 2u);
}

// ---- Stage accounting: the flush is charged to the query that runs it. ----

TEST(QueryCacheTest, MaintenanceChargedToTheFlushingQuery) {
  Rng rng(57);
  GraphDatabase db;
  for (int i = 0; i < 20; ++i) {
    db.graphs.push_back(RandomConnectedGraph(rng, 14, 7, 3));
  }
  db.RefreshLabelCount();
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.cache_capacity = 10;
  options.window_size = 4;
  QueryEngine engine(db, method.get(), options);

  size_t flushing = 0;
  int64_t charged = 0;
  const int64_t start = engine.cache().maintenance_micros();
  for (int q = 0; q < 120; ++q) {
    const Graph query = RandomSubgraphOf(
        rng, db.graphs[rng.Below(db.graphs.size())], 3 + rng.Below(6));
    const size_t fill_before = engine.cache().window_fill();
    const int64_t before = engine.cache().maintenance_micros();
    QueryStats stats;
    engine.Process(query, &stats);
    const int64_t growth = engine.cache().maintenance_micros() - before;
    const bool flushed = fill_before > 0 && engine.cache().window_fill() == 0;
    EXPECT_EQ(stats.maintenance_micros, growth) << "query " << q;
    EXPECT_LE(stats.maintenance_micros, stats.total_micros) << "query " << q;
    if (flushed) {
      ++flushing;
    } else {
      EXPECT_EQ(stats.maintenance_micros, 0) << "query " << q;
    }
    charged += stats.maintenance_micros;
  }
  EXPECT_GT(flushing, 20u);
  // Every microsecond of maintenance is charged to exactly one query.
  EXPECT_EQ(charged, engine.cache().maintenance_micros() - start);
}

// ---- Incremental §5.2 relink vs indexes built from scratch. ----

TEST(PathTrieRelinkTest, FeatureWhoseLastPostingIsDroppedIsGone) {
  const PathKey shared = PackPathKey({0, 1});
  const PathKey only_first = PackPathKey({0, 1, 2});  // a child of `shared`
  const SortedPathFeatures first = {{shared, 2}, {only_first, 2}};
  const SortedPathFeatures second = {{shared, 4}};
  PathTrie trie;
  const std::vector<const SortedPathFeatures*> both = {&first, &second};
  trie.Relink({}, both);  // ids 0 and 1
  ASSERT_NE(trie.Find(only_first), nullptr);
  EXPECT_EQ(trie.NumFeatures(), 2u);

  // Evict id 0: its sole feature must vanish (no empty posting list left
  // behind), and id 1 is renumbered to 0.
  const std::vector<uint32_t> evict_first = {kDroppedId, 0};
  trie.Relink(evict_first, {});
  EXPECT_EQ(trie.Find(only_first), nullptr);
  const std::vector<PathPosting>* postings = trie.Find(shared);
  ASSERT_NE(postings, nullptr);
  ASSERT_EQ(postings->size(), 1u);
  EXPECT_EQ((*postings)[0].graph_id, 0u);
  EXPECT_EQ((*postings)[0].count, 4u);
  EXPECT_EQ(trie.NumFeatures(), 1u);
  EXPECT_EQ(trie.NumNodes(), 3u);  // root, 0, 0-1: the dead node is pruned

  // The feature can come back with a later entry, after the survivor.
  const std::vector<const SortedPathFeatures*> again = {&first};
  const std::vector<uint32_t> keep = {0};
  trie.Relink(keep, again);
  postings = trie.Find(only_first);
  ASSERT_NE(postings, nullptr);
  ASSERT_EQ(postings->size(), 1u);
  EXPECT_EQ((*postings)[0].graph_id, 1u);

  // Dropping everything leaves an empty trie that finds nothing.
  const std::vector<uint32_t> drop_all = {kDroppedId, kDroppedId};
  trie.Relink(drop_all, {});
  EXPECT_EQ(trie.Find(shared), nullptr);
  EXPECT_EQ(trie.NumFeatures(), 0u);
  EXPECT_EQ(trie.NumNodes(), 1u);
}

PathEnumeratorOptions CacheEnumeratorOptions(const IgqOptions& options) {
  PathEnumeratorOptions popts;
  popts.max_edges = options.path_max_edges;
  popts.include_single_vertices = true;
  return popts;
}

// Probes `probes` against the cache and against an Isub/Isuper pair built
// from scratch over a copy of its entries, with every feature vector
// recomputed from its graph. Positions, the exact-match shortcut and the
// probe test counts must agree exactly; with `brute_force` the positions
// are also checked against direct containment tests on every entry.
void ExpectProbesMatchFreshBuild(const QueryCache& cache,
                                 const PathEnumeratorOptions& popts,
                                 const std::vector<Graph>& probes,
                                 bool brute_force, const std::string& where) {
  std::vector<CachedQuery> entries = cache.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].features =
        SortPathFeatures(CountPathFeatures(entries[i].graph, popts));
    ASSERT_EQ(cache.entries()[i].features, entries[i].features)
        << where << ": stored features of entry " << i;
  }
  IgqIndex index(popts);
  index.Build(entries);
  UllmannMatcher matcher;
  for (size_t p = 0; p < probes.size(); ++p) {
    const Graph& query = probes[p];
    const PathFeatureCounts features = cache.ExtractFeatures(query);
    const CacheProbe probe = cache.Probe(query, features);
    size_t fresh_tests = 0;
    std::vector<size_t> supergraphs, subgraphs;
    if (!entries.empty()) {
      supergraphs = index.FindSupergraphsOf(query, features, &fresh_tests);
      subgraphs = index.FindSubgraphsOf(query, features, &fresh_tests);
    }
    ASSERT_EQ(probe.supergraph_positions, supergraphs) << where << " probe " << p;
    ASSERT_EQ(probe.subgraph_positions, subgraphs) << where << " probe " << p;
    ASSERT_EQ(probe.probe_iso_tests, fresh_tests) << where << " probe " << p;
    if (!brute_force) continue;
    std::vector<size_t> expect_super, expect_sub;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (matcher.Contains(query, entries[i].graph)) expect_super.push_back(i);
      if (matcher.Contains(entries[i].graph, query)) expect_sub.push_back(i);
    }
    ASSERT_EQ(probe.supergraph_positions, expect_super) << where << " probe " << p;
    ASSERT_EQ(probe.subgraph_positions, expect_sub) << where << " probe " << p;
  }
}

const char* PolicyName(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kUtility: return "utility";
    case ReplacementPolicy::kPopularity: return "popularity";
    case ReplacementPolicy::kLru: return "lru";
    case ReplacementPolicy::kFifo: return "fifo";
  }
  return "?";
}

TEST(QueryCacheRelinkTest, EveryFlushMatchesAFreshBuild) {
  // Both query directions (the supergraph host swaps which cached graphs
  // feed the guarantee and intersect sides, and so which entries earn
  // utility), all four replacement policies, small geometries so nearly
  // every flush evicts, and a skewed stream so hits and credits make the
  // victims vary. Checked after every query, i.e. after every flush.
  for (QueryDirection direction :
       {QueryDirection::kSubgraph, QueryDirection::kSupergraph}) {
    const bool subgraph = direction == QueryDirection::kSubgraph;
    Rng rng(subgraph ? 61 : 67);
    std::vector<Graph> sources;
    for (int i = 0; i < 8; ++i) {
      sources.push_back(RandomConnectedGraph(rng, 16, 8, 3));
    }
    GraphDatabase db;
    for (int i = 0; i < 24; ++i) {
      const Graph& source = sources[rng.Below(sources.size())];
      db.graphs.push_back(subgraph ? RandomConnectedGraph(rng, 14, 7, 3)
                                   : RandomSubgraphOf(rng, source,
                                                      2 + rng.Below(4)));
    }
    db.RefreshLabelCount();
    // Queries nest inside shared sources, so cached entries stand in both
    // containment relations to each other and to the probes.
    std::vector<Graph> pool;
    for (int i = 0; i < 80; ++i) {
      const Graph& source = subgraph ? db.graphs[rng.Below(db.graphs.size())]
                                     : sources[rng.Below(sources.size())];
      pool.push_back(RandomSubgraphOf(rng, source,
                                      subgraph ? 2 + rng.Below(7)
                                               : 5 + rng.Below(9)));
    }
    std::vector<Graph> probes(pool.begin(), pool.begin() + 10);
    for (int i = 0; i < 6; ++i) {
      probes.push_back(RandomSubgraphOf(
          rng, sources[rng.Below(sources.size())], 1 + rng.Below(10)));
    }
    probes.push_back(StarGraph(0, {1, 2, 1}));

    for (ReplacementPolicy policy :
         {ReplacementPolicy::kUtility, ReplacementPolicy::kPopularity,
          ReplacementPolicy::kLru, ReplacementPolicy::kFifo}) {
      for (const auto& [capacity, window] :
           {std::pair<size_t, size_t>{12, 3}, {6, 2}}) {
        auto method = MethodRegistry::Create(
            direction, subgraph ? "ggsx" : "featurecount");
        method->Build(db);
        IgqOptions options = SmallOptions(capacity, window);
        options.replacement_policy = policy;
        QueryEngine engine(db, method.get(), options);
        const PathEnumeratorOptions popts = CacheEnumeratorOptions(options);
        const std::string label =
            std::string(subgraph ? "subgraph/" : "supergraph/") +
            PolicyName(policy) + "/C" + std::to_string(capacity);
        size_t flushes = 0;
        Rng stream(capacity * 131 + static_cast<size_t>(policy));
        for (int q = 0; q < 500; ++q) {
          const Graph& query = stream.Chance(0.3)
                                   ? pool[stream.Below(5)]
                                   : pool[stream.Below(pool.size())];
          const size_t fill_before = engine.cache().window_fill();
          engine.Process(query);
          if (fill_before > 0 && engine.cache().window_fill() == 0) ++flushes;
          ExpectProbesMatchFreshBuild(
              engine.cache(), popts, probes, /*brute_force=*/q % 16 == 0,
              label + " query " + std::to_string(q));
          if (::testing::Test::HasFatalFailure()) return;
        }
        EXPECT_GE(flushes, 80u) << label;
        EXPECT_EQ(engine.cache().size(), capacity) << label;
      }
    }
  }
}

TEST(QueryCacheRelinkTest, SnapshotLoadBuildsTheSameIndexes) {
  // Load goes through the same relink (every entry new, features
  // recomputed from the stored graphs): a restored cache probes exactly
  // like the one that was saved.
  IgqOptions options = SmallOptions(10, 3);
  QueryCache cache(options);
  Rng rng(71);
  const Graph source = RandomConnectedGraph(rng, 18, 9, 3);
  std::vector<Graph> probes;
  for (int i = 0; i < 40; ++i) {
    const Graph query = RandomSubgraphOf(rng, source, 2 + rng.Below(9));
    cache.Insert(query, {static_cast<GraphId>(i % 5)});
    if (i % 4 == 0) probes.push_back(query);
  }
  std::stringstream bytes;
  snapshot::BinaryWriter writer(bytes);
  cache.Save(writer, 8, 0);
  QueryCache restored(options);
  snapshot::BinaryReader reader(bytes);
  ASSERT_TRUE(restored.Load(reader, 8, 0));
  ASSERT_EQ(restored.size(), cache.size());
  for (size_t i = 0; i < cache.size(); ++i) {
    EXPECT_EQ(restored.entries()[i].features, cache.entries()[i].features);
  }
  for (const Graph& probe : probes) {
    const PathFeatureCounts features = cache.ExtractFeatures(probe);
    const CacheProbe a = cache.Probe(probe, features);
    const CacheProbe b = restored.Probe(probe, features);
    EXPECT_EQ(a.supergraph_positions, b.supergraph_positions);
    EXPECT_EQ(a.subgraph_positions, b.subgraph_positions);
    EXPECT_EQ(a.probe_iso_tests, b.probe_iso_tests);
  }
  ExpectProbesMatchFreshBuild(restored, CacheEnumeratorOptions(options),
                              probes, /*brute_force=*/true, "restored");
}

}  // namespace
}  // namespace igq

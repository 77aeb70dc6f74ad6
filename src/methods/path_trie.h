// Trie over path-feature label sequences with per-graph postings — the index
// structure of GraphGrepSX ("suffix tree" of paths), Grapes (paths +
// location info) and iGQ's Isuper (Algorithm 1: features with occurrence
// counts).
#ifndef IGQ_METHODS_PATH_TRIE_H_
#define IGQ_METHODS_PATH_TRIE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "features/feature_set.h"
#include "graph/graph.h"

namespace igq {
namespace snapshot {
class BinaryReader;
class BinaryWriter;
}  // namespace snapshot

/// Posting for one (feature, graph) pair.
struct PathPosting {
  uint32_t graph_id = 0;
  /// Number of directed instances of the feature in the graph.
  uint32_t count = 0;
  /// Start vertices of the instances (only if the trie stores locations).
  std::vector<VertexId> locations;
};

/// Label trie; each node corresponds to a canonical path prefix and holds
/// the postings of the feature ending there.
class PathTrie {
 public:
  /// `store_locations` enables Grapes-style location info.
  explicit PathTrie(bool store_locations = false)
      : store_locations_(store_locations) {
    nodes_.emplace_back();
  }

  /// Adds `count` instances of feature `key` for `graph_id`, with optional
  /// instance start `locations` (ignored unless location storage is on).
  /// Postings for a given key must be added in nondecreasing graph_id order.
  void Add(PathKey key, uint32_t graph_id, uint32_t count,
           const std::vector<VertexId>* locations = nullptr);

  /// Incremental reindexing — the one maintenance entry point of the
  /// cached-query index (IgqIndex, through FeatureCountIndex::Relink).
  /// First every posting's graph id is rewritten through `id_map`
  /// (common/id_map.h: old id -> dense new rank, or kDroppedId to drop the
  /// posting; it must cover every posted id), so each posting list stays
  /// sorted. Nodes left with no postings in their subtree are pruned: a
  /// feature whose last graph was dropped is gone (Find returns nullptr)
  /// and the trie does not keep growing with features no indexed graph
  /// holds. Then `added[i]` is posted under id kept + i
  /// (kept = KeptIdCount(id_map)) — after every survivor, so the lists stay
  /// sorted; a null entry reserves its id with no postings. Building from
  /// scratch is the case of an empty trie and an empty map. Never stores
  /// locations.
  void Relink(std::span<const uint32_t> id_map,
              std::span<const SortedPathFeatures* const> added);

  /// Postings of `key`, or nullptr if the feature is absent.
  const std::vector<PathPosting>* Find(PathKey key) const;

  /// Number of distinct features stored.
  size_t NumFeatures() const { return num_features_; }

  size_t NumNodes() const { return nodes_.size(); }

  /// Estimated heap footprint (Fig. 18).
  size_t MemoryBytes() const;

  bool store_locations() const { return store_locations_; }

  /// Serializes the trie node-by-node (children + postings verbatim), so a
  /// warm start deserializes the exact structure instead of re-enumerating
  /// features from the graphs.
  void Save(snapshot::BinaryWriter& writer) const;

  /// Restores a trie saved by Save(), replacing this object's contents
  /// (including the store_locations flag). `num_graphs` bounds the posting
  /// graph ids; when `graphs` is non-empty (the indexed dataset, size
  /// num_graphs), stored locations are additionally bounds-checked against
  /// each graph's vertex count — callers that consume locations (Grapes
  /// verification) must pass it. Any out-of-range id, child index, or
  /// location, or non-ascending ordering, makes it return false, in which
  /// case the trie is left unchanged.
  bool Load(snapshot::BinaryReader& reader, uint32_t num_graphs,
            std::span<const Graph> graphs = {});

 private:
  struct Node {
    // Sorted (label, child node index) pairs.
    std::vector<std::pair<Label, uint32_t>> children;
    std::vector<PathPosting> postings;
  };

  uint32_t DescendOrCreate(PathKey key);
  int64_t DescendConst(PathKey key) const;

  bool store_locations_;
  std::vector<Node> nodes_;
  size_t num_features_ = 0;
};

}  // namespace igq

#endif  // IGQ_METHODS_PATH_TRIE_H_

#include "methods/path_trie.h"

#include <algorithm>

#include "common/id_map.h"
#include "snapshot/serializer.h"

namespace igq {

uint32_t PathTrie::DescendOrCreate(PathKey key) {
  const size_t length = PathKeyLength(key);
  uint32_t node = 0;
  for (size_t i = 0; i < length; ++i) {
    const Label label = PathKeyLabelAt(key, i);
    auto& children = nodes_[node].children;
    auto it = std::lower_bound(
        children.begin(), children.end(), label,
        [](const auto& entry, Label l) { return entry.first < l; });
    if (it != children.end() && it->first == label) {
      node = it->second;
    } else {
      const uint32_t fresh = static_cast<uint32_t>(nodes_.size());
      // Note: nodes_.emplace_back() may invalidate `children`; insert first.
      nodes_[node].children.insert(it, {label, fresh});
      nodes_.emplace_back();
      node = fresh;
    }
  }
  return node;
}

// Walks the packed key directly (PathKeyLabelAt) — Find() sits on every
// filter and probe hot path, and unpacking into a vector here used to be
// the one allocation a steady-state trie lookup performed.
int64_t PathTrie::DescendConst(PathKey key) const {
  const size_t length = PathKeyLength(key);
  uint32_t node = 0;
  for (size_t i = 0; i < length; ++i) {
    const Label label = PathKeyLabelAt(key, i);
    const auto& children = nodes_[node].children;
    auto it = std::lower_bound(
        children.begin(), children.end(), label,
        [](const auto& entry, Label l) { return entry.first < l; });
    if (it == children.end() || it->first != label) return -1;
    node = it->second;
  }
  return node;
}

void PathTrie::Add(PathKey key, uint32_t graph_id, uint32_t count,
                   const std::vector<VertexId>* locations) {
  const uint32_t node = DescendOrCreate(key);
  auto& postings = nodes_[node].postings;
  if (postings.empty()) ++num_features_;
  PathPosting posting;
  posting.graph_id = graph_id;
  posting.count = count;
  if (store_locations_ && locations != nullptr) {
    posting.locations = *locations;
    std::sort(posting.locations.begin(), posting.locations.end());
    posting.locations.erase(
        std::unique(posting.locations.begin(), posting.locations.end()),
        posting.locations.end());
  }
  postings.push_back(std::move(posting));
}

void PathTrie::Relink(std::span<const uint32_t> id_map,
                      std::span<const SortedPathFeatures* const> added) {
  // Remap postings and find the live nodes. A child is always created
  // after its parent (DescendOrCreate appends, Load requires it), so one
  // reverse pass sees every child before its parent.
  std::vector<uint8_t> live(nodes_.size(), 0);
  for (size_t n = nodes_.size(); n-- > 0;) {
    Node& node = nodes_[n];
    size_t kept = 0;
    for (PathPosting& posting : node.postings) {
      const uint32_t id = id_map[posting.graph_id];
      if (id == kDroppedId) continue;
      posting.graph_id = id;
      if (&node.postings[kept] != &posting) {
        node.postings[kept] = std::move(posting);
      }
      ++kept;
    }
    node.postings.erase(node.postings.begin() + static_cast<ptrdiff_t>(kept),
                        node.postings.end());
    live[n] = kept > 0 ? 1 : 0;
    for (const auto& [label, child] : node.children) live[n] |= live[child];
  }
  live[0] = 1;  // the root stays, even over an empty index

  // Compact the live nodes in place, keeping their order (so children still
  // follow their parents), and drop the dead children from every list.
  std::vector<uint32_t> new_index(nodes_.size(), 0);
  uint32_t next = 0;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    if (live[n]) new_index[n] = next++;
  }
  num_features_ = 0;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    if (!live[n]) continue;
    Node& node = nodes_[n];
    std::erase_if(node.children,
                  [&live](const auto& entry) { return !live[entry.second]; });
    for (auto& entry : node.children) entry.second = new_index[entry.second];
    if (!node.postings.empty()) ++num_features_;
    if (new_index[n] != n) nodes_[new_index[n]] = std::move(node);
  }
  nodes_.erase(nodes_.begin() + next, nodes_.end());

  // Post the new graphs after every survivor.
  const uint32_t first_added = static_cast<uint32_t>(KeptIdCount(id_map));
  for (size_t i = 0; i < added.size(); ++i) {
    if (added[i] == nullptr) continue;
    for (const auto& [key, count] : *added[i]) {
      Add(key, first_added + static_cast<uint32_t>(i), count);
    }
  }
}

const std::vector<PathPosting>* PathTrie::Find(PathKey key) const {
  const int64_t node = DescendConst(key);
  if (node < 0) return nullptr;
  const auto& postings = nodes_[static_cast<size_t>(node)].postings;
  return postings.empty() ? nullptr : &postings;
}

void PathTrie::Save(snapshot::BinaryWriter& writer) const {
  writer.WriteU8(store_locations_ ? 1 : 0);
  writer.WriteU64(nodes_.size());
  for (const Node& node : nodes_) {
    writer.WriteU32(static_cast<uint32_t>(node.children.size()));
    for (const auto& [label, child] : node.children) {
      writer.WriteU32(label);
      writer.WriteU32(child);
    }
    writer.WriteU32(static_cast<uint32_t>(node.postings.size()));
    for (const PathPosting& posting : node.postings) {
      writer.WriteU32(posting.graph_id);
      writer.WriteU32(posting.count);
      if (store_locations_) {
        writer.WriteU32(static_cast<uint32_t>(posting.locations.size()));
        for (VertexId location : posting.locations) writer.WriteU32(location);
      }
    }
  }
}

bool PathTrie::Load(snapshot::BinaryReader& reader, uint32_t num_graphs,
                    std::span<const Graph> graphs) {
  // Parse into fresh storage and commit only on success, so a failed load
  // leaves the existing structure untouched.
  uint8_t store_locations = 0;
  uint64_t num_nodes = 0;
  if (!reader.ReadU8(&store_locations) || !reader.ReadU64(&num_nodes) ||
      num_nodes == 0) {
    return false;
  }
  std::vector<Node> nodes;
  size_t num_features = 0;
  for (uint64_t n = 0; n < num_nodes; ++n) {
    Node node;
    uint32_t num_children = 0;
    if (!reader.ReadU32(&num_children)) return false;
    node.children.reserve(std::min<uint32_t>(num_children, 1024));
    Label previous_label = 0;
    for (uint32_t c = 0; c < num_children; ++c) {
      uint32_t label = 0, child = 0;
      if (!reader.ReadU32(&label) || !reader.ReadU32(&child)) return false;
      // Children must be sorted strictly ascending (Find binary-searches
      // them) and may only point at later, in-range nodes.
      if (c > 0 && label <= previous_label) return false;
      if (child <= n || child >= num_nodes) return false;
      previous_label = label;
      node.children.emplace_back(label, child);
    }
    uint32_t num_postings = 0;
    if (!reader.ReadU32(&num_postings)) return false;
    node.postings.reserve(std::min<uint32_t>(num_postings, 1024));
    for (uint32_t p = 0; p < num_postings; ++p) {
      PathPosting posting;
      if (!reader.ReadU32(&posting.graph_id) || !reader.ReadU32(&posting.count)) {
        return false;
      }
      if (posting.graph_id >= num_graphs) return false;
      if (p > 0 && posting.graph_id <= node.postings[p - 1].graph_id) {
        return false;  // strictly ascending: no duplicate postings
      }
      if (store_locations != 0) {
        uint32_t num_locations = 0;
        if (!reader.ReadU32(&num_locations)) return false;
        posting.locations.reserve(std::min<uint32_t>(num_locations, 1024));
        for (uint32_t l = 0; l < num_locations; ++l) {
          uint32_t location = 0;
          if (!reader.ReadU32(&location)) return false;
          // Locations are vertex ids of graphs[graph_id]; consumers index
          // with them unchecked, so validate here when we can.
          if (!graphs.empty() &&
              location >= graphs[posting.graph_id].NumVertices()) {
            return false;
          }
          if (l > 0 && location <= posting.locations.back()) {
            return false;  // Add() stores them sorted and deduplicated
          }
          posting.locations.push_back(location);
        }
      }
      node.postings.push_back(std::move(posting));
    }
    if (!node.postings.empty()) ++num_features;
    nodes.push_back(std::move(node));
  }
  store_locations_ = store_locations != 0;
  nodes_ = std::move(nodes);
  num_features_ = num_features;
  return true;
}

size_t PathTrie::MemoryBytes() const {
  size_t bytes = sizeof(*this) + nodes_.capacity() * sizeof(Node);
  for (const Node& node : nodes_) {
    bytes += node.children.capacity() * sizeof(std::pair<Label, uint32_t>);
    bytes += node.postings.capacity() * sizeof(PathPosting);
    for (const PathPosting& posting : node.postings) {
      bytes += posting.locations.capacity() * sizeof(VertexId);
    }
  }
  return bytes;
}

}  // namespace igq

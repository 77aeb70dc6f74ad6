// Monotone id maps: how an incremental index relink renumbers positions
// after a cache flush (§5.2). Survivors keep their relative order, evicted
// positions vanish, and new entries take the positions after every
// survivor — so one old->new map describes the whole change, and every
// id-sorted structure stays sorted under it.
#ifndef IGQ_COMMON_ID_MAP_H_
#define IGQ_COMMON_ID_MAP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace igq {

/// Id-map value of a dropped (evicted) old id.
inline constexpr uint32_t kDroppedId = 0xffffffffu;

/// Number of ids an id map keeps. A valid map sends the k-th kept old id to
/// k (dense ranks, ascending), so this is also the first id after them.
inline size_t KeptIdCount(std::span<const uint32_t> id_map) {
  size_t kept = 0;
  for (uint32_t id : id_map) kept += id != kDroppedId ? 1 : 0;
  return kept;
}

/// Moves items[old] to items[id_map[old]] for every kept old id and shrinks
/// `items` (one item per old id) to the kept count. New ids never exceed
/// old ones, so a single forward pass never overwrites an item it still has
/// to move.
template <typename T>
void CompactByIdMap(std::vector<T>& items, std::span<const uint32_t> id_map) {
  size_t kept = 0;
  for (size_t old = 0; old < id_map.size(); ++old) {
    if (id_map[old] == kDroppedId) continue;
    if (id_map[old] != old) items[id_map[old]] = std::move(items[old]);
    ++kept;
  }
  items.erase(items.begin() + static_cast<std::ptrdiff_t>(kept), items.end());
}

}  // namespace igq

#endif  // IGQ_COMMON_ID_MAP_H_

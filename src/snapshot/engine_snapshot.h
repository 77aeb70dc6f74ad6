// Warm-start snapshot save/load shared by QueryEngine and
// ConcurrentQueryEngine (docs/FORMATS.md): the engine's cache section, the
// method-index section, and the mutation-state section, framed by the
// checksummed container of snapshot.h. The engines differ only in their
// cache — its section id, its error strings, and its Save/Load — which
// they pass in.
#ifndef IGQ_SNAPSHOT_ENGINE_SNAPSHOT_H_
#define IGQ_SNAPSHOT_ENGINE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/function_ref.h"
#include "methods/method.h"
#include "snapshot/snapshot.h"

namespace igq {

/// What LoadSnapshot actually restored.
struct SnapshotLoadInfo {
  /// True when the snapshot carried a method-index section and the
  /// engine's method accepted it — Build() is then unnecessary.
  bool method_index_restored = false;
  /// Cached queries (Igraphs) restored, excluding pending window entries.
  size_t cached_queries = 0;
  /// Mutation state the snapshot was validated against: the database's
  /// mutation epoch and tombstone count at save time (both 0 for a
  /// snapshot of a never-mutated dataset, which carries no mutation
  /// section).
  uint64_t mutation_epoch = 0;
  size_t tombstones = 0;
  /// Why LoadSnapshot failed, when it did (kNone after a successful load):
  /// corrupt bytes, a format version skew, or a snapshot that belongs to a
  /// different dataset/configuration. Callers branch on this (igq_tool maps
  /// it to exit codes; recovery's ladder reports it).
  snapshot::SnapshotErrorKind error_kind = snapshot::SnapshotErrorKind::kNone;
};

namespace snapshot {

class BinaryReader;
class BinaryWriter;

/// An engine's cache section: its id and the error strings its save and
/// load report.
struct CacheSection {
  uint32_t id;
  const char* save_error;      // the cache failed to serialize
  const char* missing_error;   // the snapshot carries no such section
  const char* rejected_error;  // the cache's Load refused the payload
};

/// Serializes a cache given the dataset size and fingerprint it indexes.
using SaveCacheFn =
    FunctionRef<void(BinaryWriter& writer, uint64_t num_graphs,
                     uint32_t dataset_crc)>;
/// Loads a cache section into a fresh cache; false rejects the payload.
using LoadCacheFn =
    FunctionRef<bool(BinaryReader& reader, uint64_t num_graphs,
                     uint32_t dataset_crc)>;

/// Writes the snapshot: the cache section through `save_cache`, the method
/// index when the method supports persistence (prefixed by the method name,
/// so a mismatched load is caught early), and the mutation state once the
/// database has ever mutated. Returns false on stream failure, filling
/// `error` if non-null.
bool SaveEngineSnapshot(std::ostream& out, const GraphDatabase& db,
                        const Method& method, const CacheSection& section,
                        SaveCacheFn save_cache, std::string* error);

/// Restores a snapshot written by SaveEngineSnapshot. Every section is
/// decoded and checksum-verified, and the mutation state validated against
/// `db`, before any state changes. Then `load_fresh_cache` loads the cache
/// section into a fresh cache, the method index (if any) loads, and only
/// then `commit_cache` swaps the fresh cache in and returns its cached
/// query count. Each failure sets `error` and `info->error_kind` and leaves
/// the engine — cache and method alike — as it was.
bool LoadEngineSnapshot(std::istream& in, const GraphDatabase& db,
                        Method& method, const CacheSection& section,
                        LoadCacheFn load_fresh_cache,
                        FunctionRef<size_t()> commit_cache, std::string* error,
                        SnapshotLoadInfo* info);

}  // namespace snapshot
}  // namespace igq

#endif  // IGQ_SNAPSHOT_ENGINE_SNAPSHOT_H_

#include "snapshot/engine_snapshot.h"

#include <sstream>

#include "snapshot/mutation_state.h"
#include "snapshot/serializer.h"

namespace igq {
namespace snapshot {
namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

bool SaveEngineSnapshot(std::ostream& out, const GraphDatabase& db,
                        const Method& method, const CacheSection& section,
                        SaveCacheFn save_cache, std::string* error) {
  WriteSnapshotHeader(out);

  std::ostringstream cache_payload;
  {
    BinaryWriter writer(cache_payload);
    save_cache(writer, db.graphs.size(), DatasetFingerprint(db.graphs));
    if (!writer.ok()) {
      SetError(error, section.save_error);
      return false;
    }
  }
  WriteSection(out, section.id, std::move(cache_payload).str());

  // The method index rides along when the method supports persistence; the
  // method name prefixes the payload so a mismatched load is caught early.
  std::ostringstream index_payload;
  {
    BinaryWriter writer(index_payload);
    writer.WriteString(method.Name());
  }
  if (method.SaveIndex(index_payload)) {
    WriteSection(out, kSectionMethodIndex, std::move(index_payload).str());
  }

  // Mutation state rides along once the dataset has ever mutated; a
  // never-mutated snapshot stays byte-identical to the pre-mutation format.
  if (db.mutation_epoch != 0) {
    std::ostringstream mutation_payload;
    BinaryWriter writer(mutation_payload);
    WriteMutationState(writer, db);
    WriteSection(out, kSectionMutationState, std::move(mutation_payload).str());
  }

  WriteSnapshotEnd(out);
  if (!out.good()) {
    SetError(error, "stream failure while writing snapshot");
    return false;
  }
  return true;
}

bool LoadEngineSnapshot(std::istream& in, const GraphDatabase& db,
                        Method& method, const CacheSection& section,
                        LoadCacheFn load_fresh_cache,
                        FunctionRef<size_t()> commit_cache, std::string* error,
                        SnapshotLoadInfo* info) {
  if (info != nullptr) *info = SnapshotLoadInfo{};
  // Each failure path classifies itself (SnapshotErrorKind) so callers can
  // tell damaged bytes, version skew, and dataset divergence apart.
  SnapshotErrorKind kind = SnapshotErrorKind::kNone;
  auto classify = [&](SnapshotErrorKind value) {
    if (info != nullptr) info->error_kind = value;
    return false;  // so failure paths read `return classify(...)`
  };
  if (!ReadSnapshotHeader(in, error, &kind)) return classify(kind);

  // Decode and checksum-verify every section before touching engine state,
  // so a file corrupted anywhere is rejected without side effects.
  std::string cache_payload, index_payload, mutation_payload;
  bool have_cache = false, have_index = false, have_mutation = false;
  for (;;) {
    Section next;
    if (!ReadSection(in, &next, error, &kind)) return classify(kind);
    if (next.id == kSectionEnd) break;
    if (next.id == section.id) {
      cache_payload = std::move(next.payload);
      have_cache = true;
    } else if (next.id == kSectionMethodIndex) {
      index_payload = std::move(next.payload);
      have_index = true;
    } else if (next.id == kSectionMutationState) {
      mutation_payload = std::move(next.payload);
      have_mutation = true;
    }
    // Unknown section ids — including the other engine's cache section,
    // whose geometry cannot match this cache — are skipped: they are
    // checksum-verified data, not corruption.
  }
  // The end marker itself carries no checksum, so a section id corrupted
  // into 0 would silently drop the file's tail — require EOF behind it.
  if (in.peek() != std::char_traits<char>::eof()) {
    SetError(error, "corrupt snapshot: trailing bytes after the end marker");
    return classify(SnapshotErrorKind::kCorrupt);
  }
  if (!have_cache) {
    SetError(error, section.missing_error);
    return classify(SnapshotErrorKind::kCorrupt);
  }

  // Mutation-state validation (validate-don't-apply: the engine holds the
  // database const, so the section must MATCH the database rather than
  // change it). A snapshot without the section can only be restored over a
  // never-mutated database.
  uint64_t mutation_epoch = 0;
  size_t num_tombstones = 0;
  if (have_mutation) {
    const uint64_t mutation_payload_size = mutation_payload.size();
    std::istringstream mutation_stream(std::move(mutation_payload));
    BinaryReader mutation_reader(mutation_stream);
    // Length fields inside the section cannot claim more than the section
    // itself holds — forged counts fail before allocating.
    mutation_reader.LimitRemainingBytes(mutation_payload_size);
    if (!ValidateMutationState(mutation_reader, db, &mutation_epoch,
                               &num_tombstones, error, &kind)) {
      return classify(kind);
    }
    if (mutation_stream.peek() != std::char_traits<char>::eof()) {
      SetError(error,
               "corrupt snapshot: unread bytes in the mutation-state section");
      return classify(SnapshotErrorKind::kCorrupt);
    }
  } else if (db.mutation_epoch != 0) {
    SetError(error,
             "snapshot carries no mutation state but the database has "
             "mutated since construction");
    return classify(SnapshotErrorKind::kDatasetDivergence);
  }

  // Validate the method-index framing before committing any state, so a
  // rejected load leaves both the cache and the method untouched.
  std::istringstream index_stream(std::move(index_payload));
  if (have_index) {
    std::string method_name;
    {
      BinaryReader name_reader(index_stream);
      if (!name_reader.ReadString(&method_name)) {
        SetError(error, "method-index section is malformed");
        return classify(SnapshotErrorKind::kCorrupt);
      }
    }
    if (method_name != method.Name()) {
      SetError(error, "snapshot index was built by method '" + method_name +
                          "', engine runs '" + method.Name() + "'");
      return classify(SnapshotErrorKind::kDatasetDivergence);
    }
  }

  // Load into a fresh cache and swap it in only after the method index (if
  // any) also loads, so every failure path leaves the engine — cache and
  // method alike — exactly as it was.
  const uint64_t cache_payload_size = cache_payload.size();
  std::istringstream cache_stream(std::move(cache_payload));
  BinaryReader cache_reader(cache_stream);
  // Same forged-length arming as the mutation section above.
  cache_reader.LimitRemainingBytes(cache_payload_size);
  if (!load_fresh_cache(cache_reader, db.graphs.size(),
                        DatasetFingerprint(db.graphs))) {
    SetError(error, section.rejected_error);
    // The payload passed its checksum, so the bytes are as written — the
    // mismatch is with this engine's dataset or configuration.
    return classify(SnapshotErrorKind::kDatasetDivergence);
  }
  // An under-counted record count would leave unread bytes behind — the
  // same silent data loss the container guards against everywhere else.
  if (cache_stream.peek() != std::char_traits<char>::eof()) {
    SetError(error, "corrupt snapshot: unread bytes in the cache section");
    return classify(SnapshotErrorKind::kCorrupt);
  }

  if (have_index) {
    // Method::LoadIndex implementations commit only on success, so a
    // false here leaves the method's existing index intact.
    if (!method.LoadIndex(db, index_stream)) {
      SetError(error, "method '" + method.Name() +
                          "' rejected its index payload (incompatible "
                          "configuration or malformed bytes)");
      return classify(SnapshotErrorKind::kDatasetDivergence);
    }
    // Fail-closed on unread bytes. LoadIndex has already committed by this
    // point, but the index it installed is self-consistent and validated
    // against db — the caller's recovery path (Build()) simply overwrites
    // it; the cache is still untouched.
    if (index_stream.peek() != std::char_traits<char>::eof()) {
      SetError(error,
               "corrupt snapshot: unread bytes in the method-index section");
      return classify(SnapshotErrorKind::kCorrupt);
    }
    if (info != nullptr) info->method_index_restored = true;
  }

  const size_t cached_queries = commit_cache();
  if (info != nullptr) {
    info->cached_queries = cached_queries;
    info->mutation_epoch = mutation_epoch;
    info->tombstones = num_tombstones;
  }
  return true;
}

}  // namespace snapshot
}  // namespace igq

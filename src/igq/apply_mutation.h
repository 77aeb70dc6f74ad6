// The mutation sequence both engines run for ApplyMutation (mutation.h):
// WAL append, then the database, then the method, then the cache patch.
// Templated on the cache; the engines differ only in what they hold around
// it (ConcurrentQueryEngine takes its writer gate exclusively first).
#ifndef IGQ_IGQ_APPLY_MUTATION_H_
#define IGQ_IGQ_APPLY_MUTATION_H_

#include "durability/wal.h"
#include "igq/mutation.h"
#include "methods/method.h"

namespace igq {

/// Applies `mutation` to `db`, `method`, and `cache`. The no-op check
/// (removing a dead id) runs BEFORE the WAL append, so every logged record
/// corresponds to exactly one applied mutation — one epoch increment — and
/// a replayed log passes through every epoch (durability/wal.h). With a
/// `wal`, the append is log-before-apply: a mutation that cannot be made
/// durable is refused (MutationResult::wal_failed) rather than applied and
/// lost on the next crash. The method absorbs the change through its
/// incremental hooks, with a full Build() fallback; the cache patches its
/// answers in place.
template <typename Cache>
MutationResult ApplyMutationTo(GraphDatabase& db, Method& method, Cache& cache,
                               durability::WalWriter* wal,
                               const GraphMutation& mutation) {
  MutationResult result;
  if (mutation.kind == MutationKind::kRemoveGraph) {
    result.id = mutation.id;
    if (!db.IsLive(mutation.id)) return result;  // no-op: never logged
  }
  if (wal != nullptr &&
      !wal->Append(mutation, db.mutation_epoch + 1, &result.wal_sequence)) {
    result.wal_failed = true;
    return result;
  }
  if (mutation.kind == MutationKind::kAddGraph) {
    result.id = db.AddGraph(mutation.graph);
    result.applied = true;
    result.incremental = method.OnAddGraph(db, result.id);
    if (!result.incremental) method.Build(db);
    cache.ApplyGraphAdded(db.graphs[result.id], result.id, method.Direction());
  } else {
    db.RemoveGraph(mutation.id);  // cannot fail: IsLive held above
    result.applied = true;
    result.incremental = method.OnRemoveGraph(db, mutation.id);
    if (!result.incremental) method.Build(db);
    cache.ApplyGraphRemoved(mutation.id);
  }
  result.epoch = db.mutation_epoch;
  return result;
}

}  // namespace igq

#endif  // IGQ_IGQ_APPLY_MUTATION_H_

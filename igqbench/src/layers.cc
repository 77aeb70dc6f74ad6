#include "layers.h"

#include <algorithm>
#include <unordered_map>

#include "isomorphism/vf2.h"

namespace igqbench {
namespace {

double Mean(double sum, double count) { return count > 0 ? sum / count : 0; }

bool IsMethodChild(SpanKind kind) {
  return kind == SpanKind::kPrepare || kind == SpanKind::kFilter ||
         kind == SpanKind::kVerify || kind == SpanKind::kUpdate;
}

bool IsDurabilityChild(SpanKind kind) {
  return kind == SpanKind::kAppend || kind == SpanKind::kSync;
}

/// Sum and count of span durations (microseconds) of one kind.
struct KindTotals {
  double micros = 0;
  double count = 0;
  double arg = 0;
  double flagged = 0;
};

}  // namespace

Reconciled Reconcile(const Span& root,
                     std::vector<std::pair<int64_t, int64_t>> children) {
  Reconciled out;
  out.span_ns = root.duration_ns();
  for (auto& child : children) {
    child.first = std::clamp(child.first, root.start_ns, root.end_ns);
    child.second = std::clamp(child.second, child.first, root.end_ns);
  }
  std::sort(children.begin(), children.end());
  int64_t covered_end = root.start_ns;
  for (const auto& [start, end] : children) {
    const int64_t from = std::max(start, covered_end);
    if (end > from) {
      out.children_ns += end - from;
      covered_end = end;
    }
  }
  out.self_ns = out.span_ns - out.children_ns;
  return out;
}

double StatesPerTest(const std::vector<Span>& spans,
                     const std::function<const igq::Graph&(int64_t)>& query_of,
                     const std::vector<igq::Graph>& graphs,
                     igq::QueryDirection direction) {
  constexpr size_t kSample = 1000;
  std::vector<std::pair<int64_t, uint64_t>> pairs;
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kVerify && span.query >= 0 &&
        span.query < kMutationIdBase) {
      pairs.emplace_back(span.query, span.arg);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  if (pairs.empty()) return 0;
  const size_t step = std::max<size_t>(1, pairs.size() / kSample);
  igq::Vf2Matcher matcher;
  igq::MatchStats stats;
  double tests = 0;
  for (size_t i = 0; i < pairs.size(); i += step) {
    const igq::Graph& query = query_of(pairs[i].first);
    const igq::Graph& graph = graphs[pairs[i].second];
    if (direction == igq::QueryDirection::kSubgraph) {
      matcher.Contains(query, graph, &stats);
    } else {
      matcher.Contains(graph, query, &stats);
    }
    tests += 1;
  }
  return static_cast<double>(stats.states) / tests;
}

std::vector<Metric> LayerMetrics(const LayerInputs& in) {
  KindTotals kinds[static_cast<size_t>(SpanKind::kPathExtract) + 1];
  // Request roots by request id, and the intervals of their children.
  std::unordered_map<int64_t, const Span*> roots;
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>> method_children;
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>> mutate_children;
  for (const Span& span : in.spans) {
    // WAL writes outside a mutation (segment headers, the closing barrier)
    // are not per-mutation cost.
    if (IsDurabilityChild(span.kind) && span.parent == 0) continue;
    KindTotals& totals = kinds[static_cast<size_t>(span.kind)];
    totals.micros += static_cast<double>(span.duration_ns()) / 1e3;
    totals.count += 1;
    totals.arg += static_cast<double>(span.arg);
    totals.flagged += span.flag ? 1 : 0;
    if (span.kind == SpanKind::kQuery || span.kind == SpanKind::kMutate) {
      roots[span.query] = &span;
    } else if (span.parent != 0 && IsMethodChild(span.kind)) {
      method_children[span.query].emplace_back(span.start_ns, span.end_ns);
      mutate_children[span.query].emplace_back(span.start_ns, span.end_ns);
    } else if (span.parent != 0 && IsDurabilityChild(span.kind)) {
      mutate_children[span.query].emplace_back(span.start_ns, span.end_ns);
    }
  }
  auto kind = [&kinds](SpanKind k) -> const KindTotals& {
    return kinds[static_cast<size_t>(k)];
  };

  // igq: per-query reconciliation against the engine's own stage timers.
  double self_us = 0, unattributed_us = 0, span_us = 0;
  double exact_hits = 0, exact_hit_us = 0;
  double initial = 0, final_candidates = 0, probe_tests = 0;
  double flushes = 0, flush_us = 0;
  double counted = 0;
  for (const QuerySample& query : in.queries) {
    const auto root = roots.find(query.id);
    if (root == roots.end() || root->second->kind != SpanKind::kQuery) continue;
    const Reconciled r = Reconcile(*root->second, method_children[query.id]);
    const double micros = static_cast<double>(r.span_ns) / 1e3;
    counted += 1;
    span_us += micros;
    self_us += static_cast<double>(r.self_ns) / 1e3;
    const igq::QueryStats& stats = query.stats;
    unattributed_us += micros - static_cast<double>(stats.filter_micros +
                                                    stats.probe_micros +
                                                    stats.verify_micros);
    if (stats.shortcut == igq::ShortcutKind::kExactHit) {
      exact_hits += 1;
      exact_hit_us += micros;
    }
    initial += static_cast<double>(stats.candidates_initial);
    final_candidates += static_cast<double>(stats.candidates_final);
    probe_tests += static_cast<double>(stats.probe_iso_tests);
    if (query.maintenance_micros > 0) {
      flushes += 1;
      flush_us += static_cast<double>(query.maintenance_micros);
    }
  }
  double mutate_self_us = 0, mutate_count = 0;
  for (const auto& [id, root] : roots) {
    if (root->kind != SpanKind::kMutate) continue;
    mutate_self_us +=
        static_cast<double>(Reconcile(*root, mutate_children[id]).self_ns) /
        1e3;
    mutate_count += 1;
  }

  const KindTotals& verify = kind(SpanKind::kVerify);
  const KindTotals& filter = kind(SpanKind::kFilter);
  const KindTotals& append = kind(SpanKind::kAppend);
  const KindTotals& sync = kind(SpanKind::kSync);
  const double mutations = static_cast<double>(in.mutations);
  return {
      {"methods.prepare_us", "us", Mean(kind(SpanKind::kPrepare).micros, counted)},
      {"methods.filter_us", "us", Mean(filter.micros, counted)},
      {"methods.filter_candidates", "count", Mean(filter.arg, filter.count)},
      {"methods.verify_calls", "calls/query", Mean(verify.count, counted)},
      {"methods.verify_us", "us", Mean(verify.micros, verify.count)},
      {"methods.verify_yield", "ratio", Mean(verify.flagged, verify.count)},
      {"methods.update_us", "us", Mean(kind(SpanKind::kUpdate).micros,
                                       kind(SpanKind::kUpdate).count)},
      {"methods.build_s", "s", Median(in.build_seconds)},
      {"methods.host_only_p50_us", "us", in.host_only_p50_us},
      {"igq.self_us", "us", Mean(self_us, counted)},
      {"igq.exact_hit_frac", "ratio", Mean(exact_hits, counted)},
      {"igq.exact_hit_us", "us", Mean(exact_hit_us, exact_hits)},
      {"igq.prune_frac", "ratio", initial > 0 ? 1 - final_candidates / initial : 0},
      {"igq.probe_tests", "tests/query", Mean(probe_tests, counted)},
      {"igq.flushes", "per-1k-queries", Mean(flushes * 1000, counted)},
      {"igq.flush_us", "us", Mean(flush_us, flushes)},
      {"igq.maintenance_frac", "ratio", Mean(flush_us, span_us)},
      {"igq.unattributed_us", "us", Mean(unattributed_us, counted)},
      {"igq.cache_entries", "count", static_cast<double>(in.cache_entries)},
      {"igq.cache_bytes", "bytes", static_cast<double>(in.cache_bytes)},
      {"igq.coalesced_hits", "per-1k-queries",
       Mean(static_cast<double>(in.coalesced_hits) * 1000, counted)},
      {"igq.dark_entries", "count", static_cast<double>(in.dark_entries)},
      {"igq.mutate_self_us", "us", Mean(mutate_self_us, mutate_count)},
      {"features.canonical_us", "us", Mean(kind(SpanKind::kCanonical).micros,
                                           kind(SpanKind::kCanonical).count)},
      {"features.path_extract_us", "us",
       Mean(kind(SpanKind::kPathExtract).micros,
            kind(SpanKind::kPathExtract).count)},
      {"isomorphism.states_per_test", "states", in.states_per_test},
      {"durability.append_us", "us", Mean(append.micros, append.count)},
      {"durability.sync_us", "us", Mean(sync.micros, sync.count)},
      {"durability.syncs", "per-mutation", Mean(sync.count, mutations)},
      {"durability.bytes_per_mutation", "bytes", Mean(append.arg, mutations)},
      {"serving.non_completed", "count", static_cast<double>(in.non_completed)},
      {"trace.throughput_qps", "1/s", in.throughput_qps},
  };
}

}  // namespace igqbench

// Self-tests of the benchmark's tracing, statistics and correctness gate: the
// decorators must not change what the engine computes, the traced counts
// must match the engine's own, a request's child spans plus its self time
// must add up to its span, the tail helper must keep ten samples beyond the
// tail, and the gate must catch stale and missing churned ids.
#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/profiles.h"
#include "harness.h"
#include "igq/engine.h"
#include "layers.h"
#include "methods/feature_count_index.h"
#include "methods/grapes.h"
#include "report.h"
#include "trace.h"
#include "workload/query_generator.h"

namespace igqbench {
namespace {

igq::IgqOptions SmallCache() {
  igq::IgqOptions options;
  options.cache_capacity = 40;
  options.window_size = 10;
  options.verify_threads = 3;  // exercises spans on pool worker threads
  return options;
}

std::vector<igq::Graph> Queries(const igq::GraphDatabase& db, size_t count) {
  std::vector<igq::Graph> graphs;
  for (auto& query : igq::GenerateWorkload(
           db.graphs, igq::MakeWorkloadSpec("zipf-zipf", 1.4, count, 7))) {
    graphs.push_back(std::move(query.graph));
  }
  return graphs;
}

/// Runs `queries` through a plain engine and a traced one over the same
/// dataset and returns the traced engine's spans and stats.
struct TracedRun {
  std::vector<Span> spans;
  std::vector<igq::QueryStats> stats;
};

TracedRun CompareWithPlain(const igq::GraphDatabase& db,
                           igq::Method& plain_method, igq::Method& inner,
                           const std::vector<igq::Graph>& queries) {
  Tracer tracer;
  TracingMethod traced_method(&inner, &tracer);
  plain_method.Build(db);
  traced_method.Build(db);
  igq::QueryEngine plain(db, &plain_method, SmallCache());
  igq::QueryEngine traced(db, &traced_method, SmallCache());
  TracedRun run;
  tracer.Clear();
  for (size_t i = 0; i < queries.size(); ++i) {
    igq::QueryStats plain_stats, traced_stats;
    const std::vector<igq::GraphId> expected =
        plain.Process(queries[i], &plain_stats);
    std::vector<igq::GraphId> answer;
    {
      ScopedSpan span(&tracer, SpanKind::kQuery, static_cast<int64_t>(i));
      answer = traced.Process(queries[i], &traced_stats);
    }
    EXPECT_EQ(answer, expected) << "query " << i;
    EXPECT_EQ(traced_stats.candidates_initial, plain_stats.candidates_initial);
    EXPECT_EQ(traced_stats.candidates_final, plain_stats.candidates_final);
    EXPECT_EQ(traced_stats.iso_tests, plain_stats.iso_tests);
    EXPECT_EQ(traced_stats.probe_iso_tests, plain_stats.probe_iso_tests);
    EXPECT_EQ(traced_stats.answer_size, plain_stats.answer_size);
    EXPECT_EQ(traced_stats.isub_hits, plain_stats.isub_hits);
    EXPECT_EQ(traced_stats.isuper_hits, plain_stats.isuper_hits);
    EXPECT_EQ(traced_stats.shortcut, plain_stats.shortcut);
    run.stats.push_back(traced_stats);
  }
  run.spans = tracer.Collect();
  return run;
}

size_t CountKind(const std::vector<Span>& spans, SpanKind kind) {
  return static_cast<size_t>(std::count_if(
      spans.begin(), spans.end(),
      [kind](const Span& span) { return span.kind == kind; }));
}

size_t SumIsoTests(const std::vector<igq::QueryStats>& stats) {
  size_t total = 0;
  for (const igq::QueryStats& s : stats) total += s.iso_tests;
  return total;
}

TEST(Decorators, SubgraphEngineUnchangedAndVerifyCallsMatchIsoTests) {
  const igq::GraphDatabase db = igq::MakeDataset("aids", 0.05, 3);
  igq::GrapesMethod plain_method(2), inner(2);
  const TracedRun run =
      CompareWithPlain(db, plain_method, inner, Queries(db, 300));
  const size_t iso_tests = SumIsoTests(run.stats);
  ASSERT_GT(iso_tests, 0u);
  EXPECT_EQ(CountKind(run.spans, SpanKind::kVerify), iso_tests);
  // Every verify span belongs to an open query, worker threads included.
  for (const Span& span : run.spans) {
    if (span.kind == SpanKind::kVerify) {
      EXPECT_GE(span.query, 0);
      EXPECT_NE(span.parent, 0u);
    }
  }
}

TEST(Decorators, SupergraphEngineUnchangedAndVerifyCallsMatchIsoTests) {
  const igq::GraphDatabase molecules = igq::MakeDataset("aids", 0.03, 5);
  igq::GraphDatabase library;
  const std::vector<igq::Graph> fragments = Queries(molecules, 150);
  library.graphs.assign(fragments.begin(), fragments.end());
  library.RefreshLabelCount();
  std::vector<igq::Graph> queries;
  igq::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    queries.push_back(molecules.graphs[rng.Below(40)]);
  }
  igq::FeatureCountSupergraphMethod plain_method, inner;
  const TracedRun run = CompareWithPlain(library, plain_method, inner, queries);
  const size_t iso_tests = SumIsoTests(run.stats);
  ASSERT_GT(iso_tests, 0u);
  EXPECT_EQ(CountKind(run.spans, SpanKind::kVerify), iso_tests);
}

TEST(Reconcile, ChildSpansPlusSelfTimeAddUpToEachQuery) {
  const igq::GraphDatabase db = igq::MakeDataset("aids", 0.05, 4);
  igq::GrapesMethod plain_method(2), inner(2);
  const TracedRun run =
      CompareWithPlain(db, plain_method, inner, Queries(db, 200));
  std::map<int64_t, const Span*> roots;
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : run.spans) {
    if (span.kind == SpanKind::kQuery) {
      roots[span.query] = &span;
    } else {
      children[span.query].emplace_back(span.start_ns, span.end_ns);
    }
  }
  ASSERT_EQ(roots.size(), 200u);
  double total_span = 0, total_children = 0, total_self = 0;
  for (const auto& [id, root] : roots) {
    for (const auto& [start, end] : children[id]) {
      EXPECT_GE(start, root->start_ns) << "query " << id;
      EXPECT_LE(end, root->end_ns) << "query " << id;
    }
    const Reconciled r = Reconcile(*root, children[id]);
    EXPECT_EQ(r.span_ns, r.children_ns + r.self_ns);
    EXPECT_GE(r.self_ns, 0);
    total_span += static_cast<double>(r.span_ns);
    total_children += static_cast<double>(r.children_ns);
    total_self += static_cast<double>(r.self_ns);
  }
  EXPECT_GT(total_children, 0);

  // The reported igq.self_us is the same partition, averaged per query.
  LayerInputs inputs;
  inputs.spans = run.spans;
  for (size_t i = 0; i < run.stats.size(); ++i) {
    inputs.queries.push_back({static_cast<int64_t>(i), run.stats[i], 0});
  }
  double self_us = -1;
  for (const Metric& metric : LayerMetrics(inputs)) {
    if (metric.name == "igq.self_us") self_us = metric.value;
    if (metric.name == "methods.verify_calls") {
      EXPECT_DOUBLE_EQ(metric.value, static_cast<double>(SumIsoTests(run.stats)) /
                                         static_cast<double>(run.stats.size()));
    }
  }
  EXPECT_NEAR(self_us, total_self / 1e3 / 200.0, 1e-6);
  EXPECT_NEAR(total_children + total_self, total_span, 0.5);
}

TEST(Reconcile, OverlappingChildrenCountOnce) {
  Span root;
  root.start_ns = 100;
  root.end_ns = 200;
  // Two parallel verify calls overlap on [130, 150); one child pokes out.
  const Reconciled r =
      Reconcile(root, {{120, 150}, {130, 160}, {170, 180}, {190, 260}});
  EXPECT_EQ(r.span_ns, 100);
  EXPECT_EQ(r.children_ns, (160 - 120) + (180 - 170) + (200 - 190));
  EXPECT_EQ(r.self_ns, 100 - r.children_ns);
}

TEST(Tail, KeepsTenSamplesBeyond) {
  for (size_t n : {11u, 12u, 100u, 1000u, 7013u}) {
    std::vector<double> values(n);
    std::iota(values.begin(), values.end(), 1.0);
    std::reverse(values.begin(), values.end());
    const Tail tail = TailOf(values);
    EXPECT_EQ(tail.samples, n);
    EXPECT_EQ(tail.beyond, kTailBeyond);
    const size_t above = static_cast<size_t>(std::count_if(
        values.begin(), values.end(),
        [&](double v) { return v > tail.value; }));
    EXPECT_EQ(above, kTailBeyond) << "n = " << n;
    EXPECT_DOUBLE_EQ(tail.percentile, 100.0 * static_cast<double>(n - 10) /
                                          static_cast<double>(n));
  }
  EXPECT_DOUBLE_EQ(TailOf(std::vector<double>(1000, 5.0)).value, 5.0);
  EXPECT_NEAR(TailOf(std::vector<double>(100, 1.0)).percentile, 90.0, 1e-12);
}

TEST(Tail, TooFewSamplesFallBackToTheMaximum) {
  const Tail tail = TailOf({3, 1, 2});
  EXPECT_EQ(tail.value, 3);
  EXPECT_EQ(tail.beyond, 0u);
  EXPECT_EQ(TailOf({}).samples, 0u);
}

/// Runs `answers` through the gate with `oracle` and returns the result.
CheckResult Check(const igq::Method& oracle, const std::vector<Answered>& answers,
                  igq::GraphId stable_limit,
                  const std::vector<const ChurnSlice*>& slices) {
  std::vector<std::string> notes;
  return CheckAnswers(oracle, answers, stable_limit, slices, &notes);
}

TEST(CheckAnswers, CatchesStaleRemovedAndMissingReaddedIds) {
  const igq::GraphDatabase db = igq::MakeDataset("aids", 0.05, 3);
  const igq::GraphId n = static_cast<igq::GraphId>(db.graphs.size());
  const igq::GraphId stable_limit = StableLimit(db.graphs.size());
  igq::GrapesMethod oracle(1);
  oracle.Build(db);
  // A graph contains itself, so the query's oracle answer holds `target`.
  const igq::GraphId target = stable_limit + 2;
  const igq::Graph& query = db.graphs[target];
  const std::vector<igq::GraphId> truth = RunOracle(oracle, {&query}, 1).answers[0];
  ASSERT_TRUE(std::binary_search(truth.begin(), truth.end(), target));
  auto without = [](std::vector<igq::GraphId> ids, igq::GraphId id) {
    ids.erase(std::find(ids.begin(), ids.end(), id));
    return ids;
  };

  // Version 1: `target` removed. Version 2: its graph re-added under id n.
  ChurnSlice slice(stable_limit, n, 1);
  slice.Removed(target);
  slice.Readded(n);
  std::vector<igq::GraphId> readded = without(truth, target);
  readded.push_back(n);

  const std::vector<Answered> right = {
      RecordAnswer(query, truth, stable_limit, 0, 0),
      RecordAnswer(query, without(truth, target), stable_limit, 0, 1),
      RecordAnswer(query, readded, stable_limit, 0, 2)};
  EXPECT_EQ(Check(oracle, right, stable_limit, {&slice}).wrong, 0u);

  // At version 2 the answer still holds the removed id and lacks the re-added
  // one: what a cache that missed both patches would return.
  const CheckResult planted =
      Check(oracle, {RecordAnswer(query, truth, stable_limit, 0, 2)},
            stable_limit, {&slice});
  EXPECT_EQ(planted.wrong, 1u);
  EXPECT_EQ(planted.extra_ids, 1u);
  EXPECT_EQ(planted.missing_ids, 1u);
  EXPECT_EQ(planted.stable_mismatches, 0u);

  // A wrong id below the churn slices is caught by the stable fingerprint.
  igq::GraphId stranger = 0;
  while (std::binary_search(truth.begin(), truth.end(), stranger)) ++stranger;
  ASSERT_LT(stranger, stable_limit);
  std::vector<igq::GraphId> stable_wrong = truth;
  stable_wrong.insert(
      std::lower_bound(stable_wrong.begin(), stable_wrong.end(), stranger),
      stranger);
  EXPECT_EQ(Check(oracle, {RecordAnswer(query, stable_wrong, stable_limit, 0, 0)},
                  stable_limit, {&slice})
                .stable_mismatches,
            1u);
}

TEST(CheckAnswers, ForeignSliceIdsMustCarryARelatedGraph) {
  const igq::GraphDatabase db = igq::MakeDataset("aids", 0.05, 3);
  const igq::GraphId n = static_cast<igq::GraphId>(db.graphs.size());
  const igq::GraphId stable_limit = StableLimit(db.graphs.size());
  const igq::GraphId mid = stable_limit + (n - stable_limit) / 2;
  igq::GrapesMethod oracle(1);
  oracle.Build(db);
  const igq::GraphId target = stable_limit + 1;
  const igq::Graph& query = db.graphs[target];
  const std::vector<igq::GraphId> truth = RunOracle(oracle, {&query}, 1).answers[0];
  // Slice 1 is another client's: its removal races the query, so a related
  // id of it may still be returned, but an unrelated one may not.
  ChurnSlice own(stable_limit, mid, 1), other(mid, n, 2);
  igq::GraphId unrelated = mid;
  while (std::binary_search(truth.begin(), truth.end(), unrelated)) ++unrelated;
  ASSERT_LT(unrelated, n);
  other.Removed(unrelated);
  std::vector<igq::GraphId> planted = truth;
  planted.push_back(unrelated);
  std::sort(planted.begin(), planted.end());
  EXPECT_EQ(Check(oracle, {RecordAnswer(query, truth, stable_limit, 0, 0)},
                  stable_limit, {&own, &other})
                .wrong,
            0u);
  const CheckResult result =
      Check(oracle, {RecordAnswer(query, planted, stable_limit, 0, 0)},
            stable_limit, {&own, &other});
  EXPECT_EQ(result.wrong, 1u);
  EXPECT_EQ(result.extra_ids, 1u);
  EXPECT_EQ(result.missing_ids, 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

}  // namespace
}  // namespace igqbench

// The single-client workloads: sub-miss, sub-hot and super-screen.
//
// One closed-loop client (each request waits for the previous reply) drives a
// QueryEngine whose verify pool has AvailableCpus() workers, the client
// counting as one. Order of a run:
//   1. set-up, repeated (median reported as setup_s, see TimeSetup);
//   2. untimed warm-up until the cache holds C entries;
//   3. the measured phase: queries until their summed latency reaches the
//      requested seconds, with kChurnSteps remove-and-re-add steps spread
//      evenly over it (WAL attached), timed apart from the queries;
//   4. traced runs only: direct feature-extraction calls on the measured
//      queries, and a VF2 replay of sampled verify pairs;
//   5. the correctness gate against a fresh iGQ-off host method built on the
//      original dataset, outside every timer.
#include <chrono>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/zipf.h"
#include "datasets/profiles.h"
#include "graph/algorithms.h"
#include "igq/engine.h"
#include "layers.h"
#include "methods/feature_count_index.h"
#include "methods/grapes.h"
#include "trace.h"
#include "workloads.h"

namespace igqbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Remove-and-re-add steps spread over the measured phase. Spreading them,
/// rather than running them back to back after it, averages their latency
/// over the same stretch of machine time as the queries'.
constexpr size_t kChurnSteps = 200;
/// Warm-up gives up filling the cache after this many queries.
constexpr size_t kMaxWarmupQueries = 40000;
/// Measured queries whose features the traced run times directly.
constexpr size_t kFeatureSample = 4000;
/// super-screen: fragment library size and the query skew.
constexpr size_t kFragments = 3000;
constexpr double kSuperAlpha = 1.1;

struct Fixture {
  igq::GraphDatabase db;
  /// super-screen: the molecule universe the queries are drawn from.
  std::vector<igq::Graph> molecules;
  std::unique_ptr<igq::Method> host;
  std::unique_ptr<TracingMethod> traced;
  std::unique_ptr<igq::QueryEngine> engine;
};

std::unique_ptr<igq::Method> MakeHost(SequentialKind kind) {
  if (kind == SequentialKind::kSuperScreen) {
    return std::make_unique<igq::FeatureCountSupergraphMethod>();
  }
  return std::make_unique<igq::GrapesMethod>(AvailableCpus());
}

/// Dataset generation, index build and engine construction: what setup_s
/// times.
void BuildFixture(SequentialKind kind, Tracer* tracer, Fixture& fixture) {
  if (kind == SequentialKind::kSuperScreen) {
    fixture.molecules = igq::MakeAidsLike(igq::AidsLikeParams{}, kDatasetSeed);
    igq::Rng rng(MixSeed(kDatasetSeed, 2));
    for (size_t i = 0; i < kFragments; ++i) {
      const igq::Graph& molecule =
          fixture.molecules[rng.Below(fixture.molecules.size())];
      fixture.db.graphs.push_back(igq::BfsNeighborhoodQuery(
          molecule, static_cast<igq::VertexId>(rng.Below(molecule.NumVertices())),
          4 + rng.Below(7)));
    }
    fixture.db.RefreshLabelCount();
  } else {
    fixture.db = igq::MakeDataset("pdbs", 1.0, kDatasetSeed);
  }
  fixture.host = MakeHost(kind);
  igq::Method* method = fixture.host.get();
  if (tracer != nullptr) {
    fixture.traced = std::make_unique<TracingMethod>(method, tracer);
    method = fixture.traced.get();
  }
  method->Build(fixture.db);
  igq::IgqOptions options;
  options.cache_capacity = kCacheCapacity;
  options.window_size = kWindowSize;
  options.verify_threads = AvailableCpus();
  fixture.engine =
      std::make_unique<igq::QueryEngine>(fixture.db, method, options);
}

/// The workload's query stream, generated from the original graphs (the
/// live dataset changes under the churn steps).
QueryStream MakeStream(SequentialKind kind, uint64_t seed,
                       const igq::GraphDatabase& original,
                       const std::vector<igq::Graph>& molecules) {
  switch (kind) {
    case SequentialKind::kSubMiss:
      return QueryStream([&original, seed](uint64_t chunk) {
        return GenerateQueries(original.graphs, "uni-uni", 1.4,
                               MixSeed(seed, 3, chunk));
      });
    case SequentialKind::kSubHot:
      return QueryStream([&original, seed](uint64_t chunk) {
        return GenerateQueries(original.graphs, "zipf-zipf", 2.0,
                               MixSeed(seed, 4, chunk));
      });
    case SequentialKind::kSuperScreen:
      break;
  }
  return QueryStream([&molecules, seed](uint64_t chunk) {
    const igq::ZipfSampler zipf(molecules.size(), kSuperAlpha);
    igq::Rng rng(MixSeed(seed, 5, chunk));
    std::vector<igq::Graph> graphs;
    graphs.reserve(QueryStream::kChunk);
    for (size_t i = 0; i < QueryStream::kChunk; ++i) {
      graphs.push_back(molecules[zipf.Sample(rng)]);
    }
    return graphs;
  });
}

/// One churn step: remove a random live graph of the slice and re-add its
/// payload under a new id. The two ApplyMutation calls are one latency
/// sample: on PDBS a removal and an add cost an order of magnitude apart, so
/// a median over single mutations would fall between the two groups.
double ChurnStep(igq::QueryEngine& engine, igq::GraphDatabase& db,
                 const igq::GraphDatabase& original, ChurnSlice& slice,
                 int64_t& next_request, Tracer* tracer, RunReport& report) {
  auto apply = [&](const igq::GraphMutation& mutation) {
    igq::MutationResult result;
    {
      ScopedSpan span(tracer, SpanKind::kMutate, next_request++);
      result = engine.ApplyMutation(db, mutation);
    }
    ++report.attempted;
    if (!result.applied) ++report.failed;
    return result;
  };
  const auto start = Clock::now();
  const igq::GraphId removed = slice.PickRandom();
  if (apply(igq::GraphMutation::Remove(removed)).applied) {
    slice.Removed(removed);
    const igq::MutationResult added =
        apply(igq::GraphMutation::Add(original.graphs[slice.pending_payload()]));
    if (added.applied) slice.Readded(added.id);
  }
  return MicrosSince(start);
}

}  // namespace

RunReport RunSequential(const RunConfig& config, SequentialKind kind) {
  RunReport report;
  std::unique_ptr<Tracer> tracer;
  if (config.trace) tracer = std::make_unique<Tracer>();
  std::unique_ptr<Fixture> fixture;
  const double setup_s = TimeSetup(
      [&] { fixture.reset(); },
      [&] {
        fixture = std::make_unique<Fixture>();
        BuildFixture(kind, tracer.get(), *fixture);
      });
  igq::QueryEngine& engine = *fixture->engine;
  // The untouched dataset: query source, re-add payloads, oracle input.
  const igq::GraphDatabase original = fixture->db;
  const igq::GraphId stable_limit = StableLimit(original.graphs.size());
  QueryStream stream =
      MakeStream(kind, config.seed, original, fixture->molecules);

  LayerInputs layers;
  std::vector<Answered> answers;
  size_t next = 0;
  while (engine.cache().size() < kCacheCapacity && next < kMaxWarmupQueries) {
    const igq::Graph& query = stream.Get(next++);
    answers.push_back(
        RecordAnswer(query, engine.Process(query), stable_limit, 0, 0));
  }
  const size_t warmup = next;
  if (tracer != nullptr) layers.build_seconds = TakeBuildSeconds(*tracer);

  BenchWal wal(config, tracer.get());
  if (!wal.Open(fixture->db.mutation_epoch)) {
    report.correct = false;
    report.notes.push_back("cannot open a WAL under " + wal.dir());
    return report;
  }
  engine.AttachWal(&wal.writer());
  ChurnSlice slice(stable_limit,
                   static_cast<igq::GraphId>(original.graphs.size()),
                   MixSeed(config.seed, 6));
  int64_t next_request = kMutationIdBase;
  const double step_every_us = config.seconds * 1e6 / kChurnSteps;

  std::vector<double> latencies;
  std::vector<double> churn_latencies;
  double busy_us = 0;
  while (busy_us < config.seconds * 1e6) {
    if (churn_latencies.size() < kChurnSteps && !slice.empty() &&
        busy_us >= static_cast<double>(churn_latencies.size()) * step_every_us) {
      churn_latencies.push_back(ChurnStep(engine, fixture->db, original, slice,
                                          next_request, tracer.get(), report));
      continue;
    }
    const igq::Graph& query = stream.Get(next);
    QuerySample sample;
    sample.id = static_cast<int64_t>(next++);
    const int64_t maintenance_before = engine.cache().maintenance_micros();
    const auto start = Clock::now();
    std::vector<igq::GraphId> answer;
    {
      ScopedSpan span(tracer.get(), SpanKind::kQuery, sample.id);
      answer = engine.Process(query, tracer != nullptr ? &sample.stats : nullptr);
    }
    const double micros = MicrosSince(start);
    busy_us += micros;
    latencies.push_back(micros);
    answers.push_back(
        RecordAnswer(query, answer, stable_limit, 0, slice.version()));
    if (tracer != nullptr) {
      sample.maintenance_micros =
          engine.cache().maintenance_micros() - maintenance_before;
      layers.queries.push_back(sample);
    }
  }
  engine.AttachWal(nullptr);
  const double throughput =
      static_cast<double>(latencies.size()) / (busy_us / 1e6);
  const double peak_rss_mb = PeakRssMb();
  report.attempted += latencies.size();
  layers.cache_entries = engine.cache().size();
  layers.cache_bytes = engine.cache().MemoryBytes();
  layers.mutations = static_cast<size_t>(next_request - kMutationIdBase);
  layers.throughput_qps = throughput;

  if (tracer != nullptr) {
    std::vector<const igq::Graph*> measured;
    for (size_t i = warmup; i < std::min(next, warmup + kFeatureSample); ++i) {
      measured.push_back(&stream.Get(i));
    }
    TimeFeatures(*tracer, measured, [&engine](const igq::Graph& query) {
      engine.cache().ExtractFeatures(query);
    });
    layers.spans = tracer->Collect();
    layers.states_per_test = StatesPerTest(
        layers.spans,
        [&stream](int64_t id) -> const igq::Graph& {
          return stream.Get(static_cast<size_t>(id));
        },
        fixture->db.graphs, fixture->host->Direction());
    WriteSpans(layers.spans, config.out_dir + "/trace-" + config.workload +
                                 ".jsonl");
  }

  // Correctness, outside every timer: the engine goes first, then a fresh
  // host method over the original dataset answers with iGQ off.
  fixture->engine.reset();
  fixture->traced.reset();
  fixture->host.reset();
  const std::unique_ptr<igq::Method> oracle = MakeHost(kind);
  oracle->Build(original);
  const CheckResult check =
      CheckAnswers(*oracle, answers, stable_limit, {&slice}, &report.notes);
  report.correct = report.correct && check.wrong == 0;
  layers.host_only_p50_us = check.host_only_p50_us;

  const Tail query_tail = TailOf(latencies);
  const Tail mutate_tail = TailOf(churn_latencies);
  report.notes.push_back(DescribeTail("query_tail_us", query_tail));
  report.notes.push_back(DescribeTail("mutate_tail_us", mutate_tail));
  if (tracer != nullptr) {
    report.metrics = LayerMetrics(layers);
  } else {
    report.metrics = {
        {"query_p50_us", "us", Median(latencies)},
        {"query_tail_us", "us", query_tail.value},
        {"throughput_qps", "1/s", throughput},
        {"mutate_p50_us", "us", Median(churn_latencies)},
        {"mutate_tail_us", "us", mutate_tail.value},
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MiB", peak_rss_mb},
    };
  }
  return report;
}

}  // namespace igqbench

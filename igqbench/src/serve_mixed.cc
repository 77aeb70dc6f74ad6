// serve-mixed: writes beside reads on the concurrent engine.
//
// Three closed-loop client streams share one ConcurrentQueryEngine (8 cache
// shards, Grapes with verify_threads = 1, so every stream verifies inline).
// Queries go through ProcessWithBudget with a deadline far above the tail —
// the budgeted pipeline. Every 20th operation of a stream is a mutation the
// stream applies itself, alternating removal and re-add inside its own slice
// of the last 10% of the original ids, with a WAL (batched:32, real file
// system) attached. The measured phase is wall-clock: all streams start
// together and stop at the deadline.
//
// Correctness: ids in the first 90% are never churned, so on them every
// answer must equal the iGQ-off oracle over the original dataset. A stream's
// own slice changes only between its own queries, so there every answer must
// hold exactly the live ids the oracle relates to the query; ids of the
// other streams' slices must carry a graph that contains the query.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "datasets/profiles.h"
#include "igq/concurrent_engine.h"
#include "layers.h"
#include "methods/grapes.h"
#include "trace.h"
#include "workloads.h"

namespace igqbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kStreams = 3;
constexpr size_t kMutationEvery = 20;
constexpr size_t kShards = 8;
constexpr double kServeAlpha = 1.1;
/// Far above any query's latency: the budget is armed (so the budgeted
/// pipeline runs) but never fires.
constexpr int64_t kDeadlineMicros = 30'000'000;
/// Warm-up gives up filling the cache after this many queries per stream.
constexpr size_t kMaxWarmupQueries = 20000;
constexpr size_t kFeatureSample = 4000;

struct Fixture {
  igq::GraphDatabase db;
  std::unique_ptr<igq::Method> host;
  std::unique_ptr<TracingMethod> traced;
  std::unique_ptr<igq::ConcurrentQueryEngine> engine;
};

void BuildFixture(Tracer* tracer, Fixture& fixture) {
  fixture.db = igq::MakeDataset("aids", 1.0, kDatasetSeed);
  fixture.host = std::make_unique<igq::GrapesMethod>(AvailableCpus());
  igq::Method* method = fixture.host.get();
  if (tracer != nullptr) {
    fixture.traced = std::make_unique<TracingMethod>(method, tracer);
    method = fixture.traced.get();
  }
  method->Build(fixture.db);
  igq::IgqOptions options;
  options.cache_capacity = kCacheCapacity;
  options.window_size = kWindowSize;
  options.verify_threads = 1;
  options.cache_shards = kShards;
  fixture.engine =
      std::make_unique<igq::ConcurrentQueryEngine>(fixture.db, method, options);
}

/// Everything one stream recorded.
struct StreamLog {
  std::vector<double> query_latencies;
  std::vector<double> mutate_latencies;
  std::vector<Answered> answers;
  std::vector<QuerySample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// One client stream: its queries, its churn slice, and its closed loop.
class Client {
 public:
  Client(size_t index, uint64_t seed, const std::vector<igq::Graph>& original,
         igq::GraphId slice_begin, igq::GraphId slice_end)
      : index_(index),
        stream_([&original, seed, index](uint64_t chunk) {
          return GenerateQueries(original, "zipf-zipf", kServeAlpha,
                                 MixSeed(seed, 20 + index, chunk));
        }),
        original_(original),
        slice_(slice_begin, slice_end, MixSeed(seed, 40 + index)) {}

  QueryStream& stream() { return stream_; }
  const ChurnSlice& slice() const { return slice_; }
  StreamLog& log() { return log_; }
  /// Leading entries of log().answers that came from the warm-up.
  size_t warmup_queries() const { return warmup_queries_; }

  /// Closed loop until `deadline` or until `done` says so. `measured` turns
  /// on the every-20th-operation mutations and the latency records.
  void Run(igq::ConcurrentQueryEngine& engine, igq::GraphDatabase& db,
           Tracer* tracer, igq::GraphId stable_limit, bool measured,
           Clock::time_point deadline, const std::function<bool()>& done) {
    igq::serving::QueryRequest request;
    request.budget.deadline_micros = kDeadlineMicros;
    while (Clock::now() < deadline && !done()) {
      ++ops_;
      if (measured && ops_ % kMutationEvery == 0) {
        Mutate(engine, db, tracer);
        continue;
      }
      const size_t position = next_query_++;
      const igq::Graph& query = stream_.Get(position);
      QuerySample sample;
      sample.id = static_cast<int64_t>(index_ << 32 | position);
      const int64_t maintenance_before = engine.cache().maintenance_micros();
      const auto start = Clock::now();
      igq::QueryResult result;
      {
        ScopedSpan span(tracer, SpanKind::kQuery, sample.id);
        result = engine.ProcessWithBudget(query, request, tracer != nullptr);
      }
      const double micros = MicrosSince(start);
      log_.answers.push_back(RecordAnswer(query, result.answer, stable_limit,
                                          index_, slice_.version()));
      if (!measured) {
        ++warmup_queries_;
        continue;
      }
      ++log_.attempted;
      if (result.outcome.kind != igq::serving::QueryOutcomeKind::kCompleted) {
        ++log_.failed;
        continue;
      }
      log_.query_latencies.push_back(micros);
      if (tracer != nullptr) {
        sample.stats = result.stats;
        sample.maintenance_micros =
            engine.cache().maintenance_micros() - maintenance_before;
        log_.samples.push_back(sample);
      }
    }
  }

 private:
  void Mutate(igq::ConcurrentQueryEngine& engine, igq::GraphDatabase& db,
              Tracer* tracer) {
    const bool remove = !slice_.pending();
    if (remove && slice_.empty()) return;  // only after failed re-adds
    // The payload comes from the untouched copy: db.graphs may be growing
    // under another stream's mutation right now.
    const igq::GraphId removed = remove ? slice_.PickRandom() : 0;
    const igq::GraphMutation mutation =
        remove ? igq::GraphMutation::Remove(removed)
               : igq::GraphMutation::Add(original_[slice_.pending_payload()]);
    const auto start = Clock::now();
    igq::MutationResult result;
    {
      ScopedSpan span(tracer, SpanKind::kMutate,
                      kMutationIdBase + static_cast<int64_t>(index_ << 32 | ops_));
      result = engine.ApplyMutation(db, mutation);
    }
    log_.mutate_latencies.push_back(MicrosSince(start));
    ++log_.attempted;
    if (!result.applied) {
      ++log_.failed;
    } else if (remove) {
      slice_.Removed(removed);
    } else {
      slice_.Readded(result.id);
    }
  }

  size_t index_;
  QueryStream stream_;
  const std::vector<igq::Graph>& original_;
  ChurnSlice slice_;
  size_t ops_ = 0;
  size_t next_query_ = 0;
  size_t warmup_queries_ = 0;
  StreamLog log_;
};

/// Runs every client on its own thread (the calling thread takes client 0).
void RunClients(std::vector<std::unique_ptr<Client>>& clients,
                const std::function<void(Client&)>& body) {
  std::vector<std::thread> threads;
  for (size_t c = 1; c < clients.size(); ++c) {
    threads.emplace_back([&body, &clients, c] { body(*clients[c]); });
  }
  body(*clients[0]);
  for (std::thread& thread : threads) thread.join();
}

}  // namespace

RunReport RunServeMixed(const RunConfig& config) {
  RunReport report;
  std::unique_ptr<Tracer> tracer;
  if (config.trace) tracer = std::make_unique<Tracer>();
  std::unique_ptr<Fixture> fixture;
  const double setup_s = TimeSetup(
      [&] { fixture.reset(); },
      [&] {
        fixture = std::make_unique<Fixture>();
        BuildFixture(tracer.get(), *fixture);
      });
  igq::ConcurrentQueryEngine& engine = *fixture->engine;
  igq::GraphDatabase& db = fixture->db;
  // The untouched dataset: query source, re-add payloads, oracle input.
  const igq::GraphDatabase original = db;
  const igq::GraphId stable_limit = StableLimit(original.graphs.size());
  const size_t slice = (original.graphs.size() - stable_limit) / kStreams;

  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < kStreams; ++c) {
    const igq::GraphId begin = stable_limit + static_cast<igq::GraphId>(c * slice);
    clients.push_back(std::make_unique<Client>(
        c, config.seed, original.graphs, begin,
        static_cast<igq::GraphId>(begin + slice)));
    clients.back()->stream().Get(2 * QueryStream::kChunk - 1);
  }

  LayerInputs layers;
  // Warm-up: queries only, until the shared cache is full.
  std::atomic<size_t> warmup_queries{0};
  RunClients(clients, [&](Client& client) {
    client.Run(engine, db, nullptr, stable_limit, false, Clock::time_point::max(),
               [&] {
                 return warmup_queries++ >= kStreams * kMaxWarmupQueries ||
                        engine.cache().size() >= kCacheCapacity;
               });
  });
  if (tracer != nullptr) layers.build_seconds = TakeBuildSeconds(*tracer);

  BenchWal wal(config, tracer.get());
  if (!wal.Open(db.mutation_epoch)) {
    report.correct = false;
    report.notes.push_back("cannot open a WAL under " + wal.dir());
    return report;
  }
  engine.AttachWal(&wal.writer());

  const uint64_t coalesced_before = engine.coalesced_hits();
  const igq::serving::OutcomeCounters outcomes_before = engine.serving_counters();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  RunClients(clients, [&](Client& client) {
    client.Run(engine, db, tracer.get(), stable_limit, true, deadline,
               [] { return false; });
  });
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double peak_rss_mb = PeakRssMb();
  engine.AttachWal(nullptr);

  StreamLog merged;
  for (auto& client : clients) {
    StreamLog& log = client->log();
    merged.query_latencies.insert(merged.query_latencies.end(),
                                  log.query_latencies.begin(),
                                  log.query_latencies.end());
    merged.mutate_latencies.insert(merged.mutate_latencies.end(),
                                   log.mutate_latencies.begin(),
                                   log.mutate_latencies.end());
    merged.samples.insert(merged.samples.end(), log.samples.begin(),
                          log.samples.end());
    report.attempted += log.attempted;
    report.failed += log.failed;
  }
  const double throughput =
      static_cast<double>(merged.query_latencies.size()) / wall_s;
  layers.cache_entries = engine.cache().size();
  layers.cache_bytes = engine.cache().MemoryBytes();
  layers.dark_entries = engine.cache().tombstoned_entries();
  layers.coalesced_hits = engine.coalesced_hits() - coalesced_before;
  const igq::serving::OutcomeCounters outcomes = engine.serving_counters();
  layers.non_completed = (outcomes.total() - outcomes_before.total()) -
                         (outcomes.completed - outcomes_before.completed);

  if (tracer != nullptr) {
    std::vector<const igq::Graph*> measured;
    for (auto& client : clients) {
      const std::vector<Answered>& answers = client->log().answers;
      for (size_t i = client->warmup_queries();
           i < answers.size() && measured.size() < kFeatureSample; ++i) {
        measured.push_back(answers[i].query);
      }
    }
    TimeFeatures(*tracer, measured, [&engine](const igq::Graph& query) {
      engine.cache().ExtractFeatures(query);
    });
  }

  // Correctness, outside every timer. The engine and its index go first; the
  // oracle is a fresh host method over the original dataset.
  fixture->engine.reset();
  fixture->traced.reset();
  fixture->host.reset();
  igq::GrapesMethod oracle_method(AvailableCpus());
  oracle_method.Build(original);
  std::vector<Answered> answers;
  std::vector<const ChurnSlice*> slices;
  for (auto& client : clients) {
    for (Answered& answered : client->log().answers) {
      answers.push_back(std::move(answered));
    }
    slices.push_back(&client->slice());
  }
  const CheckResult check =
      CheckAnswers(oracle_method, answers, stable_limit, slices, &report.notes);
  report.correct = report.correct && check.wrong == 0;
  layers.host_only_p50_us = check.host_only_p50_us;

  const Tail query_tail = TailOf(merged.query_latencies);
  const Tail mutate_tail = TailOf(merged.mutate_latencies);
  report.notes.push_back(DescribeTail("query_tail_us", query_tail));
  report.notes.push_back(DescribeTail("mutate_tail_us", mutate_tail));
  if (tracer != nullptr) {
    layers.spans = tracer->Collect();
    layers.queries = std::move(merged.samples);
    layers.mutations = merged.mutate_latencies.size();
    layers.throughput_qps = throughput;
    layers.states_per_test = StatesPerTest(
        layers.spans,
        [&clients](int64_t id) -> const igq::Graph& {
          return clients[static_cast<size_t>(id >> 32)]->stream().Get(
              static_cast<size_t>(id & 0xffffffff));
        },
        db.graphs, igq::QueryDirection::kSubgraph);
    WriteSpans(layers.spans, config.out_dir + "/trace-" + config.workload +
                                 ".jsonl");
    report.metrics = LayerMetrics(layers);
  } else {
    report.metrics = {
        {"query_p50_us", "us", Median(merged.query_latencies)},
        {"query_tail_us", "us", query_tail.value},
        {"throughput_qps", "1/s", throughput},
        {"mutate_p50_us", "us", Median(merged.mutate_latencies)},
        {"mutate_tail_us", "us", mutate_tail.value},
        {"setup_s", "s", setup_s},
        {"peak_rss_mb", "MiB", peak_rss_mb},
    };
  }
  return report;
}

}  // namespace igqbench

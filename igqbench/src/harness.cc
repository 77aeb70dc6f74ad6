#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "common/rng.h"
#include "features/canonical.h"
#include "workload/query_generator.h"
#include "workloads.h"

namespace igqbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"sub-miss", "sub-hot",
                                                 "super-screen", "serve-mixed"};
  return names;
}

RunReport RunWorkload(const RunConfig& config) {
  if (config.workload == "sub-miss") {
    return RunSequential(config, SequentialKind::kSubMiss);
  }
  if (config.workload == "sub-hot") {
    return RunSequential(config, SequentialKind::kSubHot);
  }
  if (config.workload == "super-screen") {
    return RunSequential(config, SequentialKind::kSuperScreen);
  }
  return RunServeMixed(config);
}

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<size_t>(count);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t state = seed;
  for (uint64_t word : {a, b}) state = igq::SplitMix64(state) ^ word;
  return igq::SplitMix64(state);
}

uint64_t AnswerHash(const std::vector<igq::GraphId>& ids) {
  uint64_t hash = MixSeed(ids.size(), 0x5bd1e995);
  for (igq::GraphId id : ids) hash = MixSeed(hash, id + 1);
  return hash;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<igq::Graph> GenerateQueries(const std::vector<igq::Graph>& dataset,
                                        const std::string& distribution,
                                        double alpha, uint64_t seed) {
  std::vector<igq::Graph> graphs;
  graphs.reserve(QueryStream::kChunk);
  for (igq::WorkloadQuery& query : igq::GenerateWorkload(
           dataset, igq::MakeWorkloadSpec(distribution, alpha,
                                          QueryStream::kChunk, seed))) {
    graphs.push_back(std::move(query.graph));
  }
  return graphs;
}

const igq::Graph& QueryStream::Get(size_t index) {
  const size_t chunk = index / kChunk;
  while (chunks_.size() <= chunk) {
    chunks_.push_back(generate_(chunks_.size()));
  }
  return chunks_[chunk][index % kChunk];
}

OracleResult RunOracle(const igq::Method& host,
                       const std::vector<const igq::Graph*>& queries,
                       size_t threads) {
  OracleResult result;
  result.answers.resize(queries.size());
  result.micros.resize(queries.size());
  std::atomic<size_t> cursor{0};
  auto work = [&] {
    for (size_t i = cursor++; i < queries.size(); i = cursor++) {
      const auto start = std::chrono::steady_clock::now();
      const std::unique_ptr<igq::PreparedQuery> prepared =
          host.Prepare(*queries[i]);
      std::vector<igq::GraphId> answer;
      for (igq::GraphId id : host.Filter(*prepared)) {
        if (host.Verify(*prepared, id)) answer.push_back(id);
      }
      result.micros[i] = MicrosSince(start);
      result.answers[i] = std::move(answer);
    }
  };
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
  work();
  for (std::thread& helper : helpers) helper.join();
  return result;
}

ChurnSlice::ChurnSlice(igq::GraphId begin, igq::GraphId end, uint64_t seed)
    : begin_(begin), end_(end), rng_(seed) {
  for (igq::GraphId id = begin; id < end; ++id) live_.emplace_back(id, id);
}

igq::GraphId ChurnSlice::PickRandom() {
  return live_[rng_.Below(live_.size())].first;
}

void ChurnSlice::Removed(igq::GraphId id) {
  const auto it = std::find_if(live_.begin(), live_.end(),
                               [id](const auto& live) { return live.first == id; });
  pending_payload_ = it->second;
  *it = live_.back();
  live_.pop_back();
  pending_ = true;
  events_.push_back({false, id, pending_payload_});
}

void ChurnSlice::Readded(igq::GraphId id) {
  pending_ = false;
  live_.emplace_back(id, pending_payload_);
  events_.push_back({true, id, pending_payload_});
}

igq::GraphId StableLimit(size_t original_graphs) {
  return static_cast<igq::GraphId>(original_graphs - original_graphs / 10);
}

std::vector<double> TakeBuildSeconds(Tracer& tracer) {
  std::vector<double> seconds;
  for (const Span& span : tracer.Collect()) {
    if (span.kind == SpanKind::kBuild) {
      seconds.push_back(static_cast<double>(span.duration_ns()) / 1e9);
    }
  }
  tracer.Clear();
  return seconds;
}

void TimeFeatures(Tracer& tracer, const std::vector<const igq::Graph*>& queries,
                  const std::function<void(const igq::Graph&)>& extract) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const int64_t request = static_cast<int64_t>(i);
    {
      ScopedSpan span(&tracer, SpanKind::kCanonical, request);
      igq::GraphCanonicalCode(*queries[i]);
    }
    {
      ScopedSpan span(&tracer, SpanKind::kPathExtract, request);
      extract(*queries[i]);
    }
  }
}

Answered RecordAnswer(const igq::Graph& query,
                      const std::vector<igq::GraphId>& answer,
                      igq::GraphId stable_limit, size_t slice, size_t version) {
  const auto cut = std::lower_bound(answer.begin(), answer.end(), stable_limit);
  Answered answered;
  answered.query = &query;
  answered.stable_hash = AnswerHash({answer.begin(), cut});
  answered.churned.assign(cut, answer.end());
  answered.slice = slice;
  answered.version = version;
  return answered;
}

namespace {

/// Which slice a churned id belongs to and which original graph it carries.
struct Owner {
  size_t slice;
  igq::GraphId payload;
};

/// A slice's live ids grouped by payload, moved forward event by event.
class SliceState {
 public:
  explicit SliceState(const ChurnSlice& slice)
      : slice_(slice), carriers_(slice.end() - slice.begin()) {
    for (igq::GraphId id = slice.begin(); id < slice.end(); ++id) {
      carriers_[id - slice.begin()].push_back(id);
    }
  }

  /// Applies the slice's events up to `version`, which must not decrease.
  void AdvanceTo(size_t version) {
    for (; applied_ < version; ++applied_) {
      const ChurnSlice::Event& event = slice_.events()[applied_];
      std::vector<igq::GraphId>& ids = carriers_[event.payload - slice_.begin()];
      if (event.added) {
        ids.push_back(event.id);
      } else {
        ids.erase(std::find(ids.begin(), ids.end(), event.id));
      }
    }
  }

  /// The live ids whose payload is in `related` (sorted original ids).
  std::vector<igq::GraphId> LiveRelated(
      const std::vector<igq::GraphId>& related) const {
    std::vector<igq::GraphId> ids;
    for (auto it = std::lower_bound(related.begin(), related.end(), slice_.begin());
         it != related.end() && *it < slice_.end(); ++it) {
      const std::vector<igq::GraphId>& carriers = carriers_[*it - slice_.begin()];
      ids.insert(ids.end(), carriers.begin(), carriers.end());
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  const ChurnSlice& slice_;
  std::vector<std::vector<igq::GraphId>> carriers_;
  size_t applied_ = 0;
};

}  // namespace

CheckResult CheckAnswers(const igq::Method& oracle,
                         const std::vector<Answered>& answers,
                         igq::GraphId stable_limit,
                         const std::vector<const ChurnSlice*>& slices,
                         std::vector<std::string>* notes) {
  // Each distinct query goes to the oracle once. Isomorphic queries have the
  // same answer, so the canonical code is a sound key.
  std::unordered_map<std::string, size_t> distinct_index;
  std::vector<const igq::Graph*> distinct;
  std::vector<size_t> answer_to_distinct;
  answer_to_distinct.reserve(answers.size());
  for (const Answered& answered : answers) {
    const auto [it, inserted] = distinct_index.emplace(
        igq::GraphCanonicalCode(*answered.query), distinct.size());
    if (inserted) distinct.push_back(answered.query);
    answer_to_distinct.push_back(it->second);
  }
  const OracleResult result = RunOracle(oracle, distinct, AvailableCpus());
  std::vector<uint64_t> expected(distinct.size());
  for (size_t d = 0; d < distinct.size(); ++d) {
    const std::vector<igq::GraphId>& full = result.answers[d];
    expected[d] = AnswerHash(
        {full.begin(), std::lower_bound(full.begin(), full.end(), stable_limit)});
  }

  std::unordered_map<igq::GraphId, Owner> owners;
  for (size_t s = 0; s < slices.size(); ++s) {
    for (igq::GraphId id = slices[s]->begin(); id < slices[s]->end(); ++id) {
      owners[id] = {s, id};
    }
    for (const ChurnSlice::Event& event : slices[s]->events()) {
      if (event.added) owners[event.id] = {s, event.payload};
    }
  }

  // Answers of one slice in version order, so its state only moves forward.
  std::vector<size_t> order(answers.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&answers](size_t x, size_t y) {
    return std::tie(answers[x].slice, answers[x].version) <
           std::tie(answers[y].slice, answers[y].version);
  });
  std::vector<SliceState> states;
  for (const ChurnSlice* slice : slices) states.emplace_back(*slice);

  CheckResult check;
  std::vector<size_t> wrong_queries;
  for (size_t i : order) {
    const Answered& answered = answers[i];
    const std::vector<igq::GraphId>& related = result.answers[answer_to_distinct[i]];
    const bool stable_ok =
        answered.stable_hash == expected[answer_to_distinct[i]];
    SliceState& state = states[answered.slice];
    state.AdvanceTo(answered.version);
    std::vector<igq::GraphId> own;
    size_t extra = 0;
    for (igq::GraphId id : answered.churned) {
      const auto owner = owners.find(id);
      if (owner != owners.end() && owner->second.slice == answered.slice) {
        own.push_back(id);
      } else if (owner == owners.end() ||
                 !std::binary_search(related.begin(), related.end(),
                                     owner->second.payload)) {
        ++extra;
      }
    }
    const std::vector<igq::GraphId> own_expected = state.LiveRelated(related);
    std::vector<igq::GraphId> difference;
    std::set_difference(own.begin(), own.end(), own_expected.begin(),
                        own_expected.end(), std::back_inserter(difference));
    extra += difference.size();
    difference.clear();
    std::set_difference(own_expected.begin(), own_expected.end(), own.begin(),
                        own.end(), std::back_inserter(difference));
    const size_t missing = difference.size();

    ++check.checked;
    if (!stable_ok) ++check.stable_mismatches;
    check.extra_ids += extra;
    check.missing_ids += missing;
    if (!stable_ok || extra > 0 || missing > 0) {
      ++check.wrong;
      wrong_queries.push_back(i);
    }
  }
  std::sort(wrong_queries.begin(), wrong_queries.end());
  for (size_t w = 0; w < std::min<size_t>(3, wrong_queries.size()); ++w) {
    notes->push_back("wrong answer to query #" + std::to_string(wrong_queries[w]) +
                     " of the run");
  }
  if (check.wrong > 0) {
    notes->push_back(
        std::to_string(check.wrong) + " of " + std::to_string(check.checked) +
        " answers are wrong: " + std::to_string(check.stable_mismatches) +
        " differ from the iGQ-off oracle on unchurned ids; churned ids: " +
        std::to_string(check.extra_ids) + " returned but removed or unrelated, " +
        std::to_string(check.missing_ids) + " live and related but missing");
  }
  check.host_only_p50_us = Median(result.micros);
  return check;
}

namespace {

igq::durability::WalOptions BatchedSync() {
  igq::durability::WalOptions options;
  options.sync_policy = igq::durability::SyncPolicy::kBatched;
  options.batch_records = 32;
  return options;
}

std::string FreshWalDir(const RunConfig& config) {
  const std::filesystem::path dir =
      std::filesystem::path(config.out_dir) /
      ("wal-" + config.workload + "-" + std::to_string(getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace

BenchWal::BenchWal(const RunConfig& config, Tracer* tracer)
    : dir_(FreshWalDir(config)),
      traced_fs_(&igq::durability::RealFileSystem::Instance(), tracer),
      writer_(traced_fs_, dir_, BatchedSync()) {}

BenchWal::~BenchWal() {
  writer_.Sync();
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

double TimeSetup(const std::function<void()>& teardown,
                 const std::function<void()>& build) {
  std::vector<double> seconds;
  double total = 0;
  while (seconds.size() < kSetupRepeats || total < kSetupSeconds) {
    if (!seconds.empty()) teardown();
    const auto start = std::chrono::steady_clock::now();
    build();
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    total += seconds.back();
  }
  return Median(seconds);
}

}  // namespace igqbench

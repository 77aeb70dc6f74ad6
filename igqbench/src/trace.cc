#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace igqbench {
namespace {

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<uint64_t> g_next_generation{1};

/// The calling thread's buffer and request context. `generation` names the
/// tracer the buffer belongs to, so a thread that outlives one tracer never
/// writes into a buffer of the next.
struct ThreadState {
  uint64_t generation = 0;
  void* buffer = nullptr;
  int64_t query = -1;
  uint64_t span = 0;
};
thread_local ThreadState t_state;

class TracingWritableFile final : public igq::durability::WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<igq::durability::WritableFile> inner,
                      Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool Append(const void* data, size_t size) override {
    ScopedSpan span(tracer_, SpanKind::kAppend);
    span.set_arg(size);
    return inner_->Append(data, size);
  }
  bool Sync() override {
    ScopedSpan span(tracer_, SpanKind::kSync);
    return inner_->Sync();
  }
  bool Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<igq::durability::WritableFile> inner_;
  Tracer* tracer_;
};

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery: return "igq.query";
    case SpanKind::kMutate: return "igq.mutate";
    case SpanKind::kPrepare: return "methods.prepare";
    case SpanKind::kFilter: return "methods.filter";
    case SpanKind::kVerify: return "methods.verify";
    case SpanKind::kUpdate: return "methods.update";
    case SpanKind::kBuild: return "methods.build";
    case SpanKind::kAppend: return "durability.append";
    case SpanKind::kSync: return "durability.sync";
    case SpanKind::kCanonical: return "features.canonical";
    case SpanKind::kPathExtract: return "features.path_extract";
  }
  return "unknown";
}

Tracer::Tracer()
    : generation_(g_next_generation.fetch_add(1)), origin_ns_(SteadyNanos()) {}

Tracer::~Tracer() = default;

int64_t Tracer::Now() const { return SteadyNanos() - origin_ns_; }

Tracer::Buffer& Tracer::ThreadBuffer() {
  if (t_state.generation != generation_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->slot = buffers_.size();
    buffers_.back()->spans.reserve(1 << 14);
    t_state = ThreadState{generation_, buffers_.back().get(), -1, 0};
  }
  return *static_cast<Buffer*>(t_state.buffer);
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->spans.size();
  all.reserve(total);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) buffer->spans.clear();
}

ScopedSpan::ScopedSpan(Tracer* tracer, SpanKind kind, int64_t query)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Tracer::Buffer& buffer = tracer_->ThreadBuffer();
  span_.kind = kind;
  span_.id = (buffer.slot << 40) | ++buffer.next_local;
  if (query >= 0) {
    root_ = true;
    span_.query = query;
    saved_query_ = t_state.query;
    saved_span_ = t_state.span;
    t_state.query = query;
    t_state.span = span_.id;
    tracer_->broadcast_query_.store(query, std::memory_order_relaxed);
    tracer_->broadcast_span_.store(span_.id, std::memory_order_relaxed);
  } else if (t_state.query >= 0) {
    span_.query = t_state.query;
    span_.parent = t_state.span;
  } else {
    span_.query = tracer_->broadcast_query_.load(std::memory_order_relaxed);
    span_.parent = tracer_->broadcast_span_.load(std::memory_order_relaxed);
  }
  span_.start_ns = tracer_->Now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->Now();
  if (root_) {
    t_state.query = saved_query_;
    t_state.span = saved_span_;
    // Helper threads inherit a root only while it is open.
    uint64_t open = span_.id;
    if (tracer_->broadcast_span_.compare_exchange_strong(
            open, 0, std::memory_order_relaxed)) {
      tracer_->broadcast_query_.store(-1, std::memory_order_relaxed);
    }
  }
  tracer_->ThreadBuffer().spans.push_back(span_);
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path,
                size_t limit) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const size_t count = std::min(limit, spans.size());
  for (size_t i = 0; i < count; ++i) {
    const Span& span = spans[i];
    std::fprintf(file,
                 "{\"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"id\": %" PRIu64
                 ", \"parent\": %" PRIu64 ", \"query\": %" PRId64
                 ", \"arg\": %" PRIu64 "}\n",
                 SpanName(span.kind), span.start_ns, span.end_ns, span.id,
                 span.parent, span.query, span.arg);
  }
  return std::fclose(file) == 0;
}

void TracingMethod::Build(const igq::GraphDatabase& db) {
  ScopedSpan span(tracer_, SpanKind::kBuild);
  inner_->Build(db);
}

std::unique_ptr<igq::PreparedQuery> TracingMethod::Prepare(
    const igq::Graph& query) const {
  ScopedSpan span(tracer_, SpanKind::kPrepare);
  return inner_->Prepare(query);
}

std::vector<igq::GraphId> TracingMethod::Filter(
    const igq::PreparedQuery& prepared) const {
  ScopedSpan span(tracer_, SpanKind::kFilter);
  std::vector<igq::GraphId> candidates = inner_->Filter(prepared);
  span.set_arg(candidates.size());
  return candidates;
}

bool TracingMethod::Verify(const igq::PreparedQuery& prepared,
                           igq::GraphId id) const {
  ScopedSpan span(tracer_, SpanKind::kVerify);
  span.set_arg(id);
  const bool hit = inner_->Verify(prepared, id);
  span.set_flag(hit);
  return hit;
}

bool TracingMethod::OnAddGraph(const igq::GraphDatabase& db,
                               igq::GraphId id) {
  ScopedSpan span(tracer_, SpanKind::kUpdate);
  span.set_arg(id);
  return inner_->OnAddGraph(db, id);
}

bool TracingMethod::OnRemoveGraph(const igq::GraphDatabase& db,
                                  igq::GraphId id) {
  ScopedSpan span(tracer_, SpanKind::kUpdate);
  span.set_arg(id);
  return inner_->OnRemoveGraph(db, id);
}

std::unique_ptr<igq::durability::WritableFile> TracingFileSystem::OpenForAppend(
    const std::string& path) {
  std::unique_ptr<igq::durability::WritableFile> file =
      inner_->OpenForAppend(path);
  if (file == nullptr) return nullptr;
  return std::make_unique<TracingWritableFile>(std::move(file), tracer_);
}

}  // namespace igqbench

#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "engine/json.h"

namespace rlb::perf {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};

/// Owns every thread's buffer, so spans outlive the short-lived worker
/// threads the sweep and replica loops spawn.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

struct LocalBuffer {
  std::vector<Span>* spans = nullptr;
  int index = 0;
};

LocalBuffer& local_buffer() {
  thread_local LocalBuffer local;
  if (local.spans == nullptr) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(std::make_unique<std::vector<Span>>());
    local.spans = r.buffers.back().get();
    local.index = static_cast<int>(r.buffers.size() - 1);
  }
  return local;
}

thread_local std::uint64_t t_open_span = 0;

}  // namespace

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

void set_tracing(bool on) { g_tracing.store(on); }
bool tracing() { return g_tracing.load(); }

std::vector<Span> drain_spans() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<Span> out;
  for (auto& buffer : r.buffers) {
    out.insert(out.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name, int cell) : on_(tracing()) {
  if (!on_) return;
  outer_ = t_open_span;
  span_.id = g_next_id.fetch_add(1);
  span_.parent = outer_;
  span_.cell = cell;
  span_.name = name;
  t_open_span = span_.id;
  span_.t0 = now_s();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.t1 = now_s();
  t_open_span = outer_;
  LocalBuffer& local = local_buffer();
  span_.thread = local.index;
  local.spans->push_back(span_);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index_of.find(s.parent);
    if (s.parent != 0 && it != index_of.end())
      children[it->second].emplace_back(s.t0, s.t1);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = spans[i].t0;  // everything before `reach` is counted
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      const double hi = std::min(b, spans[i].t1);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(b, spans[i].t1));
    }
    self[i] = (spans[i].t1 - spans[i].t0) - covered;
  }
  return self;
}

std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].name] += self[i];
  return out;
}

void write_chrome_trace(const std::vector<Span>& spans, std::ostream& os) {
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) os << ',';
    os << "\n{\"name\":" << engine::json::quote(s.name)
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << engine::json::encode(engine::json::make_number(
                            s.t0 * 1e6))
       << ",\"dur\":"
       << engine::json::encode(engine::json::make_number((s.t1 - s.t0) * 1e6))
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"cell\":" << s.cell << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace rlb::perf

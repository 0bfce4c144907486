#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace hostbench {

using psb::obs::JsonWriter;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 of (seed, salt): nearby seeds give unrelated streams.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xD1B54A32D192ED03ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t scaled(const Options& o, std::size_t full, std::size_t floor) {
  if (!o.smoke) return full;
  return std::max<std::size_t>(floor, full / 50);
}

// ---------------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::size_t Tracer::open(std::string_view name) {
  if (!enabled_) return 0;
  Span s;
  s.parent = open_.empty() ? 0 : open_.back();
  s.request = open_.size() <= 1 ? next_request_++ : spans_[open_.back() - 1].request;
  s.name = std::string(name);
  s.start = Clock::now();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size());
  return spans_.size();
}

void Tracer::close(std::size_t handle) {
  if (handle == 0) return;
  close_at(handle, spans_[handle - 1].start, Clock::now());
}

void Tracer::close_at(std::size_t handle, Clock::time_point t0, Clock::time_point t1) {
  if (handle == 0) return;
  spans_[handle - 1].start = t0;
  spans_[handle - 1].end = t1;
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds(std::string_view parent) const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = std::chrono::duration<double>(spans_[i].end - spans_[i].start).count();
  }
  // Children never overlap each other (one thread), so subtracting each
  // child's duration from its parent leaves exactly the uncovered part.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) {
      self[spans_[i].parent - 1] -=
          std::chrono::duration<double>(spans_[i].end - spans_[i].start).count();
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::size_t p = spans_[i].parent;
    if (parent.empty() || (p != 0 && spans_[p - 1].name == parent)) {
      out[spans_[i].name] += self[i];
    }
  }
  return out;
}

void Tracer::write_json(JsonWriter& w) const {
  const auto ns = [&](Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
  };
  w.begin_array("spans");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.field("id", static_cast<std::uint64_t>(i + 1));
    w.field("parent", static_cast<std::uint64_t>(s.parent));
    w.field("request", s.request);
    w.field("name", s.name);
    w.field("start_ns", ns(s.start));
    w.field("end_ns", ns(s.end));
    w.end_object();
  }
  w.end_array();
  w.key("self_s").begin_object();
  for (const auto& [name, s] : self_seconds()) w.field(name, s);
  w.end_object();
}

// ---------------------------------------------------------------------------

namespace {
std::map<std::string, std::uint64_t> registry_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, v] : psb::obs::Registry::global().snapshot().counters) out[name] = v;
  return out;
}
}  // namespace

RegistryPhases::RegistryPhases() : last_(registry_counters()) {}

void RegistryPhases::mark(std::string name) {
  std::map<std::string, std::uint64_t> now = registry_counters();
  std::map<std::string, std::uint64_t> delta;
  for (const auto& [counter, v] : now) {
    const auto it = last_.find(counter);
    const std::uint64_t before = it == last_.end() ? 0 : it->second;
    if (v != before) delta[counter] = v - before;
  }
  phases_.emplace_back(std::move(name), std::move(delta));
  last_ = std::move(now);
}

std::uint64_t RegistryPhases::delta(std::string_view phase, std::string_view counter) const {
  for (const auto& [name, d] : phases_) {
    if (name != phase) continue;
    const auto it = d.find(std::string(counter));
    return it == d.end() ? 0 : it->second;
  }
  return 0;
}

void RegistryPhases::write_json(JsonWriter& w) const {
  w.key("registry_deltas").begin_object();
  for (const auto& [name, d] : phases_) {
    w.key(name).begin_object();
    for (const auto& [counter, v] : d) w.field(counter, v);
    w.end_object();
  }
  w.end_object();
}

// ---------------------------------------------------------------------------

std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t fingerprint(const psb::knn::BatchResult& r) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const psb::knn::QueryResult& q : r.queries) {
    h = fingerprint_mix(h, static_cast<std::uint64_t>(q.status));
    for (const psb::KnnHeap::Entry& e : q.neighbors) {
      h = fingerprint_mix(h, e.id);
      h = fingerprint_mix(h, std::bit_cast<std::uint32_t>(e.dist));
    }
  }
  const psb::knn::TraversalStats& s = r.stats;
  for (const std::uint64_t v : {s.nodes_visited, s.leaves_visited, s.points_examined,
                                s.backtracks, s.leaf_scans, s.restarts, s.heap_inserts,
                                s.heap_pushes}) {
    h = fingerprint_mix(h, v);
  }
  const psb::simt::Metrics& m = r.metrics;
  for (const std::uint64_t v :
       {m.warp_instructions, m.active_lane_slots, m.serial_ops, m.divergent_steps,
        m.bytes_coalesced, m.bytes_random, m.bytes_cached, m.node_fetches, m.fetches_random,
        m.fetches_cached, static_cast<std::uint64_t>(m.shared_bytes), r.exec.steps,
        r.exec.serialized_cycles, r.exec.overlapped_cycles}) {
    h = fingerprint_mix(h, v);
  }
  h = fingerprint_mix(h, std::bit_cast<std::uint64_t>(r.timing.wall_ms));
  return fingerprint_mix(h, std::bit_cast<std::uint64_t>(r.timing.avg_query_ms));
}

bool same_neighbors(const std::vector<psb::KnnHeap::Entry>& a,
                    const std::vector<psb::KnnHeap::Entry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    if (std::bit_cast<std::uint32_t>(a[i].dist) != std::bit_cast<std::uint32_t>(b[i].dist)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------

double Samples::total_s() const {
  double total = 0;
  for (const std::int64_t v : ns_) total += static_cast<double>(v);
  return total * 1e-9;
}

std::size_t tail_rank(std::size_t n) {
  if (n == 0) return 0;
  const std::size_t p99 = (99 * n + 99) / 100;  // ceil(0.99 n)
  const std::size_t keep_ten = n > 10 ? n - 10 : 0;
  return std::max((n + 1) / 2, std::min(p99, keep_ten));
}

double Samples::rank_us(std::size_t rank) const {
  if (ns_.empty()) return 0;
  std::vector<std::int64_t> sorted = ns_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t r = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[r - 1]) * 1e-3;
}

void timed_loop(double seconds, std::size_t pass_ops,
                const std::function<void(std::size_t pass, std::size_t i)>& op) {
  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    for (std::size_t i = 0; i < pass_ops; ++i) {
      if (pass > 0 && std::chrono::duration<double>(Clock::now() - start).count() >= seconds) {
        return;
      }
      op(pass, i);
    }
  }
}

// ---------------------------------------------------------------------------

void Outcome::fail(std::uint64_t n, std::string note) {
  failed += n;
  if (notes.size() < 8) notes.push_back(std::move(note));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {

void write_env(JsonWriter& w, const Options& o) {
  w.field("workload", o.workload);
  w.field("seed", o.seed);
  w.field("seconds", o.seconds);
  w.field("smoke", o.smoke);
  w.field("trace", o.trace);
  w.field("compiler", PSB_HOSTBENCH_COMPILER);
  w.field("build_type", PSB_HOSTBENCH_BUILD_TYPE);
  w.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
}

std::string compact_line(const Outcome& out) {
  std::string s = "{\"correct\": ";
  s += out.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i > 0) s += ", ";
    s += '"';
    s += psb::obs::json_escape(m.name);
    s += "\": {\"value\": ";
    s += psb::obs::format_double(m.value);
    s += ", \"unit\": \"";
    s += psb::obs::json_escape(m.unit);
    s += "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace

void finish(Context& ctx, const std::string& per_query_traces_json) {
  const Options& o = ctx.opts;
  Outcome& out = ctx.out;
  for (Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.fail(1, "metric " + m.name + " is not finite");
      m.value = 0;
    }
  }

  JsonWriter w;
  w.begin_object();
  w.field("schema", "psb.hostbench.v1");
  write_env(w, o);
  w.field("correct", out.correct());
  w.field("attempted", out.attempted);
  w.field("failed", out.failed);
  w.begin_array("notes");
  for (const std::string& n : out.notes) w.value(n);
  w.end_array();
  for (const auto& [key, list] :
       {std::pair{"metrics", &out.metrics}, {"details", &out.details}}) {
    w.key(key).begin_object();
    for (const Metric& m : *list) {
      w.key(m.name).begin_object();
      w.field("value", m.value);
      w.field("unit", m.unit);
      if (m.samples > 0) w.field("samples", static_cast<std::uint64_t>(m.samples));
      w.end_object();
    }
    w.end_object();
  }
  if (o.trace) {
    ctx.registry.write_json(w);
    ctx.tracer.write_json(w);
  }
  w.end_object();

  namespace fs = std::filesystem;
  const fs::path dir = o.trace ? fs::path(o.out_dir) / "trace" : fs::path(o.out_dir);
  fs::create_directories(dir);
  psb::obs::write_text_file((dir / (o.workload + ".json")).string(), w.str());
  if (o.trace && !per_query_traces_json.empty()) {
    psb::obs::write_text_file((dir / (o.workload + ".queries.json")).string(),
                              per_query_traces_json);
  }

  for (const std::string& n : out.notes) {
    std::fprintf(stderr, "FAIL %s: %s\n", o.workload.c_str(), n.c_str());
  }
  for (const std::vector<Metric>* list : {&out.details, &out.metrics}) {
    for (const Metric& m : *list) {
      std::printf("%s %s %s %s", o.workload.c_str(), m.name.c_str(),
                  psb::obs::format_double(m.value).c_str(), m.unit.c_str());
      if (m.samples > 0) std::printf(" n=%zu", m.samples);
      std::printf("\n");
    }
  }
  std::printf("%s\n", compact_line(out).c_str());
  std::fflush(stdout);
}

}  // namespace hostbench

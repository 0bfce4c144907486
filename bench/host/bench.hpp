// Host-time benchmark: declarations shared by the harness and the workloads.
//
// One process runs one workload. It generates its inputs (every random
// choice from --seed), sets the index up several times (setup_s), runs a fixed
// pass of library calls over and over until --seconds have elapsed, checks
// sampled answers against the brute-force oracle, and prints one JSON object
// as its last line. The library is only ever called through its public
// headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/geometry.hpp"
#include "knn/result.hpp"
#include "obs/json.hpp"

namespace hostbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// 1: per-layer metrics from a traced pass (plus an untraced pass for the
  /// overhead ratio); 0: end-to-end metrics.
  bool trace = false;
  /// About 1/50 of the full input sizes, for a quick end-to-end check.
  bool smoke = false;
  /// Where the detail report and trace files go (created if missing).
  std::string out_dir = "bench/host/out";
};

/// Independent stream seed `salt` of the run seed, so that each random choice
/// of a workload changes with --seed but not with the others.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Scale a full-size count for --smoke (never below `floor`).
std::size_t scaled(const Options& o, std::size_t full, std::size_t floor);

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and request id, kept in memory and written
// out when the run ends. Disabled tracers record nothing but still time.

class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Open a span under the innermost open one. A span opened directly under
  /// the root starts a new request id; deeper spans inherit their parent's.
  std::size_t open(std::string_view name);
  void close(std::size_t handle);

  /// Run `f` inside a span and return its host duration in nanoseconds. The
  /// span and the returned duration use the same clock readings.
  template <typename F>
  std::int64_t call(std::string_view name, F&& f) {
    const std::size_t h = open(name);
    const Clock::time_point t0 = Clock::now();
    f();
    const Clock::time_point t1 = Clock::now();
    close_at(h, t0, t1);
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  }

  /// Total self time (duration minus the time covered by child spans) per
  /// span name, in seconds; with `parent` set, only over the spans whose
  /// direct parent has that name.
  std::map<std::string, double> self_seconds(std::string_view parent = {}) const;

  void write_json(psb::obs::JsonWriter& w) const;

 private:
  struct Span {
    std::size_t parent = 0;  ///< index + 1 of the parent span, 0 for none
    std::uint64_t request = 0;
    std::string name;
    Clock::time_point start{};
    Clock::time_point end{};
  };
  void close_at(std::size_t handle, Clock::time_point t0, Clock::time_point t1);

  bool enabled_;
  Clock::time_point epoch_;
  std::uint64_t next_request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< handles (index + 1) of open spans
};

/// RAII span for phases that are not single calls (setup, oracle, passes).
class SpanScope {
 public:
  SpanScope(Tracer& t, std::string_view name) : tracer_(t), handle_(t.open(name)) {}
  ~SpanScope() { tracer_.close(handle_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  std::size_t handle_;
};

// ---------------------------------------------------------------------------
// Registry deltas: obs::Registry counters snapshotted at phase boundaries.

class RegistryPhases {
 public:
  RegistryPhases();
  /// Close the current phase under `name` and start the next one.
  void mark(std::string name);
  /// Counter delta of a closed phase (0 when the counter did not move).
  std::uint64_t delta(std::string_view phase, std::string_view counter) const;
  void write_json(psb::obs::JsonWriter& w) const;

 private:
  std::map<std::string, std::uint64_t> last_;
  std::vector<std::pair<std::string, std::map<std::string, std::uint64_t>>> phases_;
};

// ---------------------------------------------------------------------------
// Counted-work fingerprints and the oracle comparison.

/// FNV-1a over everything a batch result counts: answers (ids and distance
/// bits), statuses, traversal stats, simulator metrics, overlap totals and
/// the cost-model timing. Equal fingerprints mean bit-identical counted work.
std::uint64_t fingerprint(const psb::knn::BatchResult& r);
std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t v);

/// Bit-for-bit comparison of two neighbor lists (ids and distance bits).
bool same_neighbors(const std::vector<psb::KnnHeap::Entry>& a,
                    const std::vector<psb::KnnHeap::Entry>& b);

// ---------------------------------------------------------------------------
// Host-time samples and the timed loop.

/// 1-based nearest-rank of the tail figure reported as "p99": the 99th
/// percentile, or the highest rank below it that still leaves ten samples
/// above it, but never below the median.
std::size_t tail_rank(std::size_t n);

/// Host durations in nanoseconds with nearest-rank percentiles.
class Samples {
 public:
  void add(std::int64_t ns) { ns_.push_back(ns); }
  std::size_t count() const noexcept { return ns_.size(); }
  double total_s() const;
  double median_us() const { return rank_us((ns_.size() + 1) / 2); }
  /// The tail_rank() sample in microseconds.
  double tail_us() const { return rank_us(tail_rank(ns_.size())); }

 private:
  double rank_us(std::size_t rank) const;

  std::vector<std::int64_t> ns_;
};

/// Run op(pass, i) for i = 0 .. pass_ops-1, pass after pass, until at least
/// one pass is complete and `seconds` have elapsed (checked between ops).
/// The ops time themselves; the loop only decides when to stop.
void timed_loop(double seconds, std::size_t pass_ops,
                const std::function<void(std::size_t pass, std::size_t i)>& op);

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< host-time samples behind a timing; 0 otherwise
};

struct Outcome {
  std::vector<Metric> metrics;  ///< in print order
  /// Supporting figures for the detail report and the printed lines only
  /// (e.g. the stream's latency at each rate), not part of the JSON line.
  std::vector<Metric> details;
  std::uint64_t attempted = 0;
  /// Operations without a correct answer: an oracle mismatch, a status other
  /// than kOk, or counted work that differs from the first pass.
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< first few failure descriptions

  void add(std::string name, double value, std::string unit, std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void fail(std::uint64_t n, std::string note);
  bool correct() const noexcept { return failed == 0; }
};

/// Per-run context handed to a workload.
struct Context {
  const Options& opts;
  Tracer tracer;
  RegistryPhases registry;
  Outcome out;

  explicit Context(const Options& o) : opts(o), tracer(o.trace) {}
};

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Write the detail report (and, when tracing, the span file) under
/// opts.out_dir and print the human-readable lines plus the final JSON line.
void finish(Context& ctx, const std::string& per_query_traces_json);

/// Registered workloads: name -> entry point. Each fills ctx.out with the
/// end-to-end metrics (trace 0) or the per-layer metrics (trace 1) and
/// returns the library's per-query trace export for the span file ("" when
/// not tracing).
using Workload = std::function<std::string(Context&)>;
const std::vector<std::pair<std::string, Workload>>& workloads();

}  // namespace hostbench

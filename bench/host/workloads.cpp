// The six workloads. Each one generates its inputs from the run seed, sets up
// its index several times, runs a fixed pass of public library calls until the
// time budget is spent, and checks sampled answers against the brute-force
// oracle. README.md gives the reason for each workload and the layer each
// per-layer metric belongs to.
#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <optional>
#include <span>

#include "bench.hpp"
#include "common/rng.hpp"
#include "data/noaa_synth.hpp"
#include "data/synthetic.hpp"
#include "engine/batch_engine.hpp"
#include "join/join_engine.hpp"
#include "knn/brute_force.hpp"
#include "layout/implicit.hpp"
#include "layout/snapshot.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "serve/streaming_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "simt/cost_model.hpp"
#include "sstree/builders.hpp"

namespace hostbench {
namespace {

using namespace psb;

constexpr std::size_t kK = 16;
constexpr std::size_t kDegree = 64;
constexpr PointId kNoExclude = static_cast<PointId>(-1);

double median_s(const Samples& s) { return s.median_us() * 1e-6; }

/// Median and tail_rank() value of a list of modeled latencies.
std::pair<double, double> median_and_tail(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  std::sort(v.begin(), v.end());
  return {v[(v.size() + 1) / 2 - 1], v[tail_rank(v.size()) - 1]};
}

template <typename N, typename D>
double ratio(N num, D den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Repeat `setup` until it has run at least 3 times and for at least 1 s in
/// total (just 3 times in smoke); each repetition is one sample.
void run_setup(Context& ctx, Samples& samples, const std::function<void()>& setup) {
  SpanScope span(ctx.tracer, "phase.setup");
  const double min_total_s = ctx.opts.smoke ? 0.0 : 1.0;
  while (samples.count() < 3 || samples.total_s() < min_total_s) {
    samples.add(ctx.tracer.call("setup", setup));
  }
}

sstree::BuildOutput build_tree(Tracer& tracer, Samples* build_ns, const PointSet& data) {
  std::optional<sstree::BuildOutput> built;
  const std::int64_t ns = tracer.call("sstree::build_kmeans", [&] {
    built.emplace(sstree::build_kmeans(data, kDegree));
  });
  if (build_ns != nullptr) build_ns->add(ns);
  return std::move(*built);
}

/// A built tree and the engine that borrows it (engines are not movable, so
/// the pair lives on the heap and the engine is constructed in place).
template <typename Engine>
struct TreeState {
  explicit TreeState(sstree::BuildOutput b) : built(std::move(b)) {}
  sstree::BuildOutput built;
  std::optional<Engine> engine;
};

// ---------------------------------------------------------------------------
// Oracle: sampled answers compared bit-for-bit with an exact brute-force scan
// over the same data, in the same arithmetic.

struct OracleCase {
  std::vector<Scalar> query;
  std::vector<KnnHeap::Entry> got;
  PointId exclude = kNoExclude;  ///< self-join: the query's own id
};

std::vector<KnnHeap::Entry> brute_force(const PointSet& data, std::span<const Scalar> q,
                                        std::size_t k, PointId exclude) {
  knn::GpuKnnOptions g;
  g.k = exclude == kNoExclude ? k : k + 1;
  std::vector<KnnHeap::Entry> want = knn::brute_force_query(data, q, g, nullptr).neighbors;
  if (exclude != kNoExclude) {
    const auto self = std::find_if(want.begin(), want.end(),
                                   [&](const KnnHeap::Entry& e) { return e.id == exclude; });
    if (self != want.end()) {
      want.erase(self);
    } else if (want.size() > k) {
      want.pop_back();
    }
  }
  return want;
}

void check_oracle(Context& ctx, const PointSet& data, const std::vector<OracleCase>& cases) {
  SpanScope span(ctx.tracer, "phase.oracle");
  std::size_t bad = 0;
  for (const OracleCase& c : cases) {
    if (!same_neighbors(c.got, brute_force(data, c.query, kK, c.exclude))) ++bad;
  }
  if (bad > 0) {
    ctx.out.fail(bad, std::to_string(bad) + " of " + std::to_string(cases.size()) +
                          " sampled answers differ from the brute-force oracle");
  }
}

std::size_t count_not_ok(const knn::BatchResult& r) {
  return static_cast<std::size_t>(std::count_if(
      r.queries.begin(), r.queries.end(),
      [](const knn::QueryResult& q) { return q.status != knn::QueryStatus::kOk; }));
}

// ---------------------------------------------------------------------------
// Modeled (cost-model) totals of the first pass; they repeat exactly.

struct Modeled {
  std::uint64_t answers = 0;
  std::uint64_t bytes = 0;
  double query_us_sum = 0;  ///< avg_query_ms * 1000 summed over answers
  double wall_s = 0;
  std::vector<double> latency_us;  ///< one per call: the kernel's wall time
  simt::Metrics metrics;
  double compute_ms = 0;
  double mem_ms = 0;
  simt::OverlapTotals exec;

  void add(const knn::BatchResult& r) {
    const auto n = static_cast<double>(r.queries.size());
    answers += r.queries.size();
    bytes += r.metrics.total_bytes();
    query_us_sum += r.timing.avg_query_ms * 1000.0 * n;
    wall_s += r.timing.wall_ms * 1e-3;
    latency_us.push_back(r.timing.wall_ms * 1000.0);
    metrics.merge(r.metrics);
    compute_ms += r.timing.compute_ms;
    mem_ms += r.timing.mem_ms;
    exec.merge(r.exec);
  }
};

// ---------------------------------------------------------------------------
// Metric reporting. Every workload reports every metric, so that a change
// shows on each workload as a number, never as a missing row.

struct EndToEnd {
  const Samples* setup = nullptr;
  const Samples* reads = nullptr;
  const Samples* writes = nullptr;  ///< index mutations; rebuilds when static
  double work = 0;                  ///< work units done in the timed calls
  double busy_s = 0;                ///< host seconds inside the timed calls
  std::size_t timed_calls = 0;
  double modeled_query_us = 0;
  double bytes_per_query = 0;
  double modeled_p50_us = 0;
  double modeled_p99_us = 0;
  double modeled_max_rate_qps = 0;
  std::size_t modeled_samples = 0;
};

EndToEnd from_modeled(const Modeled& m) {
  EndToEnd e;
  e.modeled_query_us = ratio(m.query_us_sum, m.answers);
  e.bytes_per_query = ratio(m.bytes, m.answers);
  std::tie(e.modeled_p50_us, e.modeled_p99_us) = median_and_tail(m.latency_us);
  e.modeled_max_rate_qps = ratio(m.answers, m.wall_s);
  e.modeled_samples = m.latency_us.size();
  return e;
}

void report_end_to_end(Outcome& out, const EndToEnd& e) {
  // A static index's writes are its setup rebuilds. Their tail is allocator
  // and page-fault noise, not a write path, so it reports the median.
  const bool rebuilds = e.writes == e.setup;
  out.add("setup_s", median_s(*e.setup), "s", e.setup->count());
  out.add("host_qps", ratio(e.work, e.busy_s), "1/s", e.timed_calls);
  out.add("host_read_p50_us", e.reads->median_us(), "us", e.reads->count());
  out.add("host_read_p99_us", e.reads->tail_us(), "us", e.reads->count());
  out.add("host_write_p50_us", e.writes->median_us(), "us", e.writes->count());
  out.add("host_write_p99_us", rebuilds ? e.writes->median_us() : e.writes->tail_us(), "us",
          e.writes->count());
  out.add("modeled_query_us", e.modeled_query_us, "us");
  out.add("accessed_bytes_per_query", e.bytes_per_query, "B");
  out.add("modeled_p50_us", e.modeled_p50_us, "us", e.modeled_samples);
  out.add("modeled_p99_us", e.modeled_p99_us, "us", e.modeled_samples);
  out.add("modeled_max_rate_qps", e.modeled_max_rate_qps, "1/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Inputs of the per-layer metrics; a layer a workload does not reach stays 0.
struct Layers {
  double build_s = 0;
  std::uint64_t nodes = 0;
  double arena_build_s = 0;
  std::uint64_t arena_bytes = 0;
  /// Simulator metrics and timings of the traced pass (absent on the stream,
  /// whose report exposes neither).
  const Modeled* modeled = nullptr;
  obs::QueryTrace trace_totals;  ///< the library's per-query traces, summed
  std::uint64_t answers = 0;     ///< answers in the traced pass
  simt::OverlapTotals exec;
  double untraced_ns_per_answer = 0;
  double traced_ns_per_answer = 0;
  /// Host time per timed call made directly by the traced loop.
  std::map<std::string, double> call_s;
  std::uint64_t join_calls = 0;
  std::uint64_t shard_queries = 0;
  const serve::StreamingReport* stream = nullptr;  ///< the nominal rung
};

void report_layers(Context& ctx, const Layers& l) {
  using TC = obs::TraceCounter;
  Outcome& out = ctx.out;
  const auto reg = [&](std::string_view counter) {
    return static_cast<double>(ctx.registry.delta("traced.pass0", counter));
  };
  const auto tr = [&](TC c) { return static_cast<double>(l.trace_totals[c]); };
  // Which layer's entry points the timed host time went to (the benchmark
  // cannot see inside a call, so this is the resolution its spans give).
  static const std::vector<std::string> kCalls = {
      "BatchEngine::run_traced", "ShardedEngine::run_traced", "ShardedEngine::insert",
      "ShardedEngine::erase",    "JoinEngine::all_knn_traced", "StreamingEngine::run"};
  double timed_s = 0;
  for (const std::string& c : kCalls) {
    if (const auto it = l.call_s.find(c); it != l.call_s.end()) timed_s += it->second;
  }
  const auto share = [&](const std::string& call) {
    const auto it = l.call_s.find(call);
    return it == l.call_s.end() ? 0.0 : ratio(it->second, timed_s);
  };
  const double answers = static_cast<double>(l.answers);

  out.add("sstree.build_s", l.build_s, "s");
  out.add("sstree.nodes", static_cast<double>(l.nodes), "count");

  out.add("layout.arena_build_s", l.arena_build_s, "s");
  out.add("layout.arena_bytes", static_cast<double>(l.arena_bytes), "B");
  out.add("layout.cached_fetch_ratio",
          l.modeled == nullptr ? 0.0
                               : ratio(l.modeled->metrics.fetches_cached,
                                       l.modeled->metrics.node_fetches),
          "ratio");
  out.add("layout.bytes_per_fetch",
          ratio(tr(TC::kBytesCoalesced) + tr(TC::kBytesRandom) + tr(TC::kBytesCached),
                tr(TC::kNodeFetches)),
          "B");

  out.add("knn.nodes_per_query", ratio(tr(TC::kNodesVisited), answers), "count");
  out.add("knn.points_per_query", ratio(tr(TC::kPointsExamined), answers), "count");
  out.add("knn.inserts_per_point", ratio(tr(TC::kHeapInserts), tr(TC::kPointsExamined)),
          "ratio");
  out.add("knn.backtracks_per_query", ratio(tr(TC::kBacktracks), answers), "count");

  const double instr = tr(TC::kWarpInstructions);
  out.add("simt.warp_efficiency", ratio(tr(TC::kActiveLaneSlots), 32.0 * instr), "ratio");
  double compute_ms = 0;
  double mem_ms = 0;
  if (l.modeled != nullptr) {
    compute_ms = l.modeled->compute_ms;
    mem_ms = l.modeled->mem_ms;
  } else if (l.answers > 0) {
    // No simulator metrics exported: rebuild the throughput terms from the
    // trace counters (bytes and instructions; fetch latency is not in them).
    simt::Metrics m;
    m.warp_instructions = l.trace_totals[TC::kWarpInstructions];
    m.active_lane_slots = l.trace_totals[TC::kActiveLaneSlots];
    m.serial_ops = l.trace_totals[TC::kSerialOps];
    m.bytes_coalesced = l.trace_totals[TC::kBytesCoalesced];
    m.bytes_random = l.trace_totals[TC::kBytesRandom];
    m.bytes_cached = l.trace_totals[TC::kBytesCached];
    simt::KernelConfig cfg;
    cfg.blocks = static_cast<int>(l.answers);
    cfg.threads_per_block = static_cast<int>(kDegree);
    const simt::KernelTiming t = simt::estimate(simt::DeviceSpec{}, m, cfg);
    compute_ms = t.compute_ms;
    mem_ms = t.mem_ms;
  }
  out.add("simt.mem_share", ratio(mem_ms, mem_ms + compute_ms), "frac");
  out.add("simt.warp_instr_per_query", ratio(instr, answers), "count");

  out.add("exec.steps_per_query", ratio(l.exec.steps, answers), "count");
  out.add("exec.overlap_ratio", l.exec.ratio(), "ratio");

  const double stream_brute = l.stream == nullptr ? 0.0 : l.stream->flush_brute_forced;
  out.add("engine.run_share", share("BatchEngine::run_traced"), "frac");
  out.add("engine.ns_per_query", l.untraced_ns_per_answer, "ns");
  out.add("engine.layout_fallbacks",
          reg("engine.layout.fallback") + reg("engine.fault.snapshot_fallback_batches") +
              reg("engine.shard.snapshot_fallback"),
          "count");
  out.add("engine.brute_fallbacks",
          reg("engine.fault.brute_fallbacks") + reg("engine.shard.brute_fallbacks") +
              reg("engine.shard.slice_brute_fallbacks") +
              reg("engine.join.pair_brute_fallbacks") + stream_brute,
          "count");

  const double lookups = reg("engine.shard.cache_hits") + reg("engine.shard.cache_misses");
  out.add("shard.run_share", share("ShardedEngine::run_traced"), "frac");
  out.add("shard.insert_share", share("ShardedEngine::insert"), "frac");
  out.add("shard.erase_share", share("ShardedEngine::erase"), "frac");
  out.add("shard.cache_hit_ratio", ratio(reg("engine.shard.cache_hits"), lookups), "ratio");
  out.add("shard.visits_per_query", ratio(reg("engine.shard.shard_visits"), l.shard_queries),
          "count");
  out.add("shard.bound_skips_per_query",
          ratio(reg("engine.shard.bound_skips"), l.shard_queries), "count");

  out.add("join.run_share", share("JoinEngine::all_knn_traced"), "frac");
  out.add("join.cohorts", ratio(reg("engine.join.cohorts"), l.join_calls), "count");
  out.add("join.pair_prunes", ratio(reg("engine.join.pair_prunes"), l.join_calls), "count");
  out.add("join.prune_saved_bytes", ratio(reg("engine.join.prune_saved_bytes"), l.join_calls),
          "B");
  out.add("join.maxdist_tightens", ratio(reg("engine.join.maxdist_tightens"), l.join_calls),
          "count");

  static const serve::StreamingReport kNoStream;
  const serve::StreamingReport& rep = l.stream == nullptr ? kNoStream : *l.stream;
  out.add("serve.run_share", share("StreamingEngine::run"), "frac");
  out.add("serve.flushes", static_cast<double>(rep.flushes), "count");
  out.add("serve.mean_cohort", ratio(rep.answered, rep.flushes), "count");
  out.add("serve.flush_full_share", ratio(rep.flush_full, rep.flushes), "frac");
  out.add("serve.max_queue_depth", static_cast<double>(rep.max_queue_depth), "count");

  out.add("replica.attempts_per_dispatch", ratio(rep.replica.attempts, rep.replica.dispatches),
          "ratio");
  out.add("replica.hedge_win_ratio", ratio(rep.replica.hedge_won, rep.replica.hedge_issued),
          "ratio");
  out.add("replica.failovers", static_cast<double>(rep.replica.failovers), "count");
  out.add("replica.straggles", static_cast<double>(rep.replica.straggles), "count");

  out.add("obs.trace_overhead_frac",
          ratio(l.traced_ns_per_answer, l.untraced_ns_per_answer) - 1.0, "frac");
}

void add_totals(obs::QueryTrace& totals, const obs::TraceReport& report) {
  for (const obs::AlgorithmTrace& a : report.algorithms) totals.merge(a.totals());
}

/// Host time of a freshly built arena over each tree (median of 3 builds,
/// summed over trees) and the arenas' total size.
template <typename Arena>
void time_arenas(Context& ctx, const std::vector<const sstree::SSTree*>& trees, Layers& l) {
  SpanScope span(ctx.tracer, "phase.arena_builds");
  Samples samples;
  for (int rep = 0; rep < 3; ++rep) {
    std::int64_t ns = 0;
    std::uint64_t bytes = 0;
    for (const sstree::SSTree* t : trees) {
      ns += ctx.tracer.call("layout::arena()", [&] { bytes += Arena(*t).arena_bytes(); });
    }
    samples.add(ns);
    l.arena_bytes = bytes;
  }
  l.arena_build_s = median_s(samples);
}

// ---------------------------------------------------------------------------
// Batch workloads: a fixed list of calls, each returning a BatchResult. The
// three kNN workloads and the all-kNN join share this code.

struct BatchPlan {
  std::size_t calls = 0;       ///< calls per pass
  std::string call_name;       ///< span name of the untraced call
  std::string traced_name;     ///< span name of the traced call
  std::function<knn::BatchResult(std::size_t)> run;
  std::function<std::pair<knn::BatchResult, obs::TraceReport>(std::size_t)> run_traced;
  /// Keep what the oracle needs from a first-pass answer.
  std::function<void(std::size_t, const knn::BatchResult&)> sample;
};

struct PlanRun {
  std::vector<std::uint64_t> fingerprints;  ///< per call of the first pass
  Modeled modeled;                          ///< first pass
  Samples reads;
  std::uint64_t answers = 0;                ///< over every timed call
  obs::QueryTrace trace_totals;             ///< first pass, traced runs only
  std::string first_trace_json;
};

/// One timed loop over the plan. `label` names its registry phases;
/// `expect` (when set) holds fingerprints every call must reproduce.
PlanRun run_plan(Context& ctx, const BatchPlan& plan, double seconds, bool traced,
                 const std::string& label, const std::vector<std::uint64_t>* expect) {
  PlanRun pr;
  SpanScope span(ctx.tracer, "loop." + label);
  timed_loop(seconds, plan.calls, [&](std::size_t pass, std::size_t i) {
    knn::BatchResult r;
    obs::TraceReport trace;
    if (traced) {
      pr.reads.add(ctx.tracer.call(plan.traced_name, [&] {
        auto [res, tr] = plan.run_traced(i);
        r = std::move(res);
        trace = std::move(tr);
      }));
    } else {
      pr.reads.add(ctx.tracer.call(plan.call_name, [&] { r = plan.run(i); }));
    }
    pr.answers += r.queries.size();
    ctx.out.attempted += r.queries.size();
    if (const std::size_t bad = count_not_ok(r); bad > 0) {
      ctx.out.fail(bad, std::to_string(bad) + " answers not kOk in call " + std::to_string(i));
    }
    const std::uint64_t fp = fingerprint(r);
    const std::uint64_t want =
        expect != nullptr ? (*expect)[i] : (pass == 0 ? fp : pr.fingerprints[i]);
    if (fp != want) {
      ctx.out.fail(r.queries.size(), "counted work of call " + std::to_string(i) + " in pass " +
                                         std::to_string(pass) + " (" + label + ") differs");
    }
    if (pass > 0) return;
    pr.fingerprints.push_back(fp);
    pr.modeled.add(r);
    if (traced) {
      add_totals(pr.trace_totals, trace);
      if (i == 0) pr.first_trace_json = obs::trace_to_json(trace);
    } else if (plan.sample && expect == nullptr) {
      plan.sample(i, r);
    }
    if (i + 1 == plan.calls) ctx.registry.mark(label + ".pass0");
  });
  ctx.registry.mark(label + ".rest");
  return pr;
}

struct BatchSetup {
  const PointSet* data = nullptr;
  Samples setup;
  Samples build_ns;
  std::vector<const sstree::SSTree*> trees;  ///< for the arena timing
  bool implicit_arena = false;
  std::size_t join_calls_per_pass = 0;
};

/// Shared flow of the batch workloads after setup: warm-up, timed loop(s),
/// oracle, then the metrics of the mode. Returns the per-query trace export.
std::string finish_batch(Context& ctx, const BatchPlan& plan, const BatchSetup& s,
                         const std::vector<OracleCase>& cases) {
  {
    SpanScope span(ctx.tracer, "phase.warmup");
    (void)plan.run(0);
  }
  ctx.registry.mark("setup");
  const double seconds = ctx.opts.trace ? ctx.opts.seconds / 2 : ctx.opts.seconds;
  const PlanRun base = run_plan(ctx, plan, seconds, false, "untraced", nullptr);
  check_oracle(ctx, *s.data, cases);
  ctx.registry.mark("oracle");

  if (!ctx.opts.trace) {
    EndToEnd e = from_modeled(base.modeled);
    e.setup = &s.setup;
    e.reads = &base.reads;
    e.writes = &s.setup;
    e.work = static_cast<double>(base.answers);
    e.busy_s = base.reads.total_s();
    e.timed_calls = base.reads.count();
    report_end_to_end(ctx.out, e);
    return {};
  }

  const PlanRun tr = run_plan(ctx, plan, seconds, true, "traced", &base.fingerprints);
  Layers l;
  l.build_s = median_s(s.build_ns);
  for (const sstree::SSTree* t : s.trees) l.nodes += t->num_nodes();
  if (s.implicit_arena) {
    time_arenas<layout::ImplicitLayout>(ctx, s.trees, l);
  } else {
    time_arenas<layout::TraversalSnapshot>(ctx, s.trees, l);
  }
  l.modeled = &tr.modeled;
  l.trace_totals = tr.trace_totals;
  l.answers = tr.modeled.answers;
  l.exec = tr.modeled.exec;
  l.untraced_ns_per_answer = ratio(base.reads.total_s() * 1e9, base.answers);
  l.traced_ns_per_answer = ratio(tr.reads.total_s() * 1e9, tr.answers);
  l.call_s = ctx.tracer.self_seconds("loop.traced");
  l.join_calls = s.join_calls_per_pass;
  report_layers(ctx, l);
  return tr.first_trace_json;
}

/// Query batches sampled from the data with a small jitter, one seed each.
std::vector<PointSet> make_batches(const PointSet& data, std::size_t count, std::size_t size,
                                   std::uint64_t seed) {
  std::vector<PointSet> out;
  for (std::size_t b = 0; b < count; ++b) {
    out.push_back(data::sample_queries(data, size, 0.01, derive_seed(seed, 100 + b)));
  }
  return out;
}

struct KnnConfig {
  PointSet data;
  std::size_t batches = 0;
  std::size_t batch_size = 0;
  std::size_t oracle_stride = 64;
  engine::BatchEngineOptions engine;
};

std::string run_knn(Context& ctx, KnnConfig cfg) {
  const std::uint64_t seed = ctx.opts.seed;
  const std::vector<PointSet> batches =
      make_batches(cfg.data, cfg.batches, cfg.batch_size, derive_seed(seed, 3));
  cfg.engine.gpu.k = kK;
  cfg.engine.num_threads = 1;

  std::unique_ptr<TreeState<engine::BatchEngine>> state;
  BatchSetup s;
  s.data = &cfg.data;
  s.implicit_arena = cfg.engine.resolved_layout() == engine::NodeLayout::kImplicit;
  run_setup(ctx, s.setup, [&] {
    state.reset();
    state = std::make_unique<TreeState<engine::BatchEngine>>(
        build_tree(ctx.tracer, &s.build_ns, cfg.data));
    ctx.tracer.call("BatchEngine()",
                    [&] { state->engine.emplace(state->built.tree, cfg.engine); });
  });
  s.trees = {&state->built.tree};

  std::vector<OracleCase> cases;
  BatchPlan plan;
  plan.calls = batches.size();
  plan.call_name = "BatchEngine::run";
  plan.traced_name = "BatchEngine::run_traced";
  plan.run = [&](std::size_t i) { return state->engine->run(batches[i]); };
  plan.run_traced = [&](std::size_t i) {
    engine::BatchEngine::TracedRun t = state->engine->run_traced(batches[i]);
    return std::make_pair(std::move(t.result), std::move(t.trace));
  };
  plan.sample = [&](std::size_t i, const knn::BatchResult& r) {
    for (std::size_t q = 0; q < batches[i].size(); q += cfg.oracle_stride) {
      const auto p = batches[i][q];
      cases.push_back({{p.begin(), p.end()}, r.queries[q].neighbors, kNoExclude});
    }
  };
  return finish_batch(ctx, plan, s, cases);
}

engine::BatchEngineOptions psb_snapshot_reorder() {
  engine::BatchEngineOptions e;
  e.algorithm = engine::Algorithm::kPsb;
  e.layout = engine::NodeLayout::kSnapshot;
  e.reorder_queries = true;
  e.warp_queries = 32;
  return e;
}

// The datasets stand in for fixed real datasets (the paper's NOAA readings
// and Fig. 4 mixtures), so they keep the generators' default seeds, as does
// the tree builder; --seed drives the queries, streams, op sequences and
// replica health draws. Regenerating the data per seed moved capacity itself:
// across ten seeds the interquartile range of the stream's modeled mean
// latency was twice its median.
PointSet noaa(std::size_t stations, std::size_t readings) {
  data::NoaaSpec spec;
  spec.stations = stations;
  spec.readings_per_station = readings;
  return data::make_noaa_like(spec);
}

/// Add a seed-drawn Gaussian offset (sigma 0.01) to every coordinate: the
/// seed's hold on inputs that are otherwise a fixed trace or dataset.
void add_offsets(PointSet& points, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (Scalar& v : points.mutable_point(i)) v += static_cast<Scalar>(rng.normal(0.0, 0.01));
  }
}

std::string knn_noaa1m(Context& ctx) {
  KnnConfig c;
  c.data = noaa(scaled(ctx.opts, 20000, 40), 50);
  c.batches = 10;
  c.batch_size = scaled(ctx.opts, 4096, 64);
  c.oracle_stride = 128;
  c.engine = psb_snapshot_reorder();
  return run_knn(ctx, std::move(c));
}

std::string knn_noaa6k_hot(Context& ctx) {
  KnnConfig c;
  c.data = noaa(150, 40);
  c.batches = scaled(ctx.opts, 100, 2);
  c.batch_size = 4096;
  c.engine.algorithm = engine::Algorithm::kImplicitStackless;
  c.engine.layout = engine::NodeLayout::kImplicit;
  return run_knn(ctx, std::move(c));
}

std::string knn_clustered64(Context& ctx) {
  KnnConfig c;
  data::ClusteredSpec spec;
  spec.dims = 64;
  spec.num_clusters = 100;
  spec.points_per_cluster = scaled(ctx.opts, 1000, 20);
  spec.stddev = 160.0;
  c.data = data::make_clustered(spec);
  c.batches = 4;
  c.batch_size = scaled(ctx.opts, 4096, 64);
  c.engine = psb_snapshot_reorder();
  return run_knn(ctx, std::move(c));
}

std::string allknn_noaa100k(Context& ctx) {
  // The self-join's dataset is also its query set, so the seed moves it.
  PointSet data = noaa(scaled(ctx.opts, 2000, 40), 50);
  add_offsets(data, derive_seed(ctx.opts.seed, 7));
  join::JoinOptions jo;
  jo.k = kK;
  jo.variant = join::JoinVariant::kDual;
  jo.cohort_queries = 128;
  jo.engine.layout = engine::NodeLayout::kSnapshot;
  jo.engine.num_threads = 1;

  std::unique_ptr<TreeState<join::JoinEngine>> state;
  BatchSetup s;
  s.data = &data;
  s.join_calls_per_pass = 3;
  run_setup(ctx, s.setup, [&] {
    state.reset();
    state = std::make_unique<TreeState<join::JoinEngine>>(
        build_tree(ctx.tracer, &s.build_ns, data));
    ctx.tracer.call("JoinEngine()", [&] { state->engine.emplace(state->built.tree, jo); });
  });
  s.trees = {&state->built.tree};

  // About 500 targets, spread evenly over the point ids.
  const std::size_t stride = std::max<std::size_t>(1, data.size() / 500);
  std::vector<OracleCase> cases;
  BatchPlan plan;
  plan.calls = s.join_calls_per_pass;
  plan.call_name = "JoinEngine::all_knn";
  plan.traced_name = "JoinEngine::all_knn_traced";
  plan.run = [&](std::size_t) { return state->engine->all_knn(); };
  plan.run_traced = [&](std::size_t) {
    join::JoinEngine::TracedRun t = state->engine->all_knn_traced();
    return std::make_pair(std::move(t.result), std::move(t.trace));
  };
  plan.sample = [&](std::size_t i, const knn::BatchResult& r) {
    if (i != 0) return;
    for (std::size_t p = 0; p < data.size(); p += stride) {
      cases.push_back({{data[p].begin(), data[p].end()}, r.queries[p].neighbors,
                       static_cast<PointId>(p)});
    }
  };
  return finish_batch(ctx, plan, s, cases);
}

// ---------------------------------------------------------------------------
// Sharded workloads.

shard::ShardedEngineOptions sharded_options(std::size_t cache_capacity) {
  shard::ShardedEngineOptions so;
  so.num_shards = 4;
  so.degree = kDegree;
  so.builder = shard::ShardTreeBuilder::kKMeans;
  so.engine = psb_snapshot_reorder();
  so.engine.gpu.k = kK;
  so.engine.num_threads = 1;
  so.cache_capacity = cache_capacity;
  return so;
}

/// Builder and arena host time over the shard trees: the same builder run on
/// each shard's own points (median of 3, summed over shards).
void shard_layers(Context& ctx, const shard::ShardedEngine& eng, Layers& l) {
  std::vector<const sstree::SSTree*> trees;
  for (std::size_t s = 0; s < eng.num_shards(); ++s) {
    if (const sstree::SSTree* t = eng.shard_tree(s)) {
      trees.push_back(t);
      l.nodes += t->num_nodes();
    }
  }
  Samples builds;
  {
    SpanScope span(ctx.tracer, "phase.shard_builds");
    for (int rep = 0; rep < 3; ++rep) {
      std::int64_t ns = 0;
      for (const sstree::SSTree* t : trees) {
        ns += ctx.tracer.call("sstree::build_kmeans",
                              [&] { (void)sstree::build_kmeans(t->data(), kDegree); });
      }
      builds.add(ns);
    }
  }
  l.build_s = median_s(builds);
  time_arenas<layout::TraversalSnapshot>(ctx, trees, l);
}

/// The stream's highest sustainable rate: the highest rung whose p99 meets the
/// deadline with nothing shed, refined by linear interpolation of p99 between
/// that rung and the next one, so the figure moves smoothly with the input.
double max_rate(const std::vector<double>& rates,
                const std::vector<serve::StreamingReport>& reps, double limit_us) {
  const auto meets = [&](std::size_t i) {
    return reps[i].shed == 0 && static_cast<double>(reps[i].p99_us()) <= limit_us;
  };
  std::size_t j = 0;
  while (j < rates.size() && meets(j)) ++j;
  if (j == rates.size()) return rates.back();
  const double pj = static_cast<double>(reps[j].p99_us());
  if (j == 0) return rates[0] * ratio(limit_us, pj);
  const double pi = static_cast<double>(reps[j - 1].p99_us());
  if (reps[j].shed > 0 || pj <= pi) return rates[j - 1];
  return rates[j - 1] + (rates[j] - rates[j - 1]) * (limit_us - pi) / (pj - pi);
}

std::uint64_t stream_fingerprint(const serve::StreamingReport& rep) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : serve::streaming_report_to_json(rep)) {
    h = fingerprint_mix(h, static_cast<unsigned char>(c));
  }
  for (const serve::StreamedQuery& q : rep.queries) {
    h = fingerprint_mix(h, (static_cast<std::uint64_t>(q.status) << 1) | (q.shed ? 1 : 0));
    h = fingerprint_mix(h, q.latency_us);
    for (const KnnHeap::Entry& e : q.neighbors) {
      h = fingerprint_mix(h, e.id);
      h = fingerprint_mix(h, std::bit_cast<std::uint32_t>(e.dist));
    }
  }
  return h;
}

std::string stream_noaa100k(Context& ctx) {
  const std::uint64_t seed = ctx.opts.seed;
  const PointSet data = noaa(scaled(ctx.opts, 2000, 40), 50);
  const double base_arrivals = static_cast<double>(scaled(ctx.opts, 10000, 200));
  // Rungs are 8k apart around the knee (72k-96k), where the p99 steps.
  const std::vector<double> rates = {32000, 48000, 64000, 72000, 80000, 88000, 96000, 128000};
  constexpr std::size_t kNominal = 2;  // 64k qps
  constexpr double kDeadlineUs = 20000;

  // One stream replayed at every rate: scaling rate, duration, diurnal period
  // and burst width together keeps every draw, so each rung serves the same
  // queries on a compressed clock. The arrival times, bursts and hotspots are
  // one fixed trace, as is the straggler profile below; the seed re-draws
  // each arrival's small query offset. Drawing the whole stream from the seed
  // made the burst count (Poisson, about 50) and with it the 64k rung's
  // modeled p99 swing by 15-25% between seeds.
  std::vector<serve::ArrivalStream> streams;
  for (const double rate : rates) {
    serve::ArrivalSpec a;
    a.rate_qps = rate;
    a.duration_s = base_arrivals / rate;
    a.diurnal_amplitude = 0.5;
    a.diurnal_period_s = a.duration_s;
    a.burst_rate_per_s = rate / 200;
    a.burst_size = 24;
    a.burst_width_s = 0.005 * 64000 / rate;
    serve::ArrivalStream s = serve::generate_arrivals(data, a);
    add_offsets(s.queries, derive_seed(seed, 7));
    streams.push_back(std::move(s));
  }

  serve::StreamingOptions so;
  so.engine.gpu.k = kK;  // the sharded backend brings its own engine options
  so.mode = serve::DispatchMode::kBuffered;
  so.buffer_capacity = 16;
  so.cell_bits = 1;
  so.deadline_us = static_cast<std::uint64_t>(kDeadlineUs);
  so.flush_horizon_us = 2000;
  so.replica.replicas = 2;
  so.replica.groups = 4;
  so.replica.hedge = true;
  so.replica.hedge_percentile = 95.0;
  so.replica.straggle_pct = 10;
  so.replica.straggle_multiplier = 8;

  std::unique_ptr<shard::ShardedEngine> sharded;
  Samples setup;
  run_setup(ctx, setup, [&] {
    sharded.reset();
    ctx.tracer.call("ShardedEngine()", [&] {
      sharded = std::make_unique<shard::ShardedEngine>(data, sharded_options(0));
    });
    ctx.tracer.call("StreamingEngine()",
                    [&] { (void)serve::StreamingEngine{*sharded, data, so}; });
  });

  // Router health and queue state live as long as a StreamingEngine, so every
  // rung gets a fresh one (its construction is not timed).
  const auto replay = [&](std::size_t rung, bool traced, serve::StreamingReport& rep,
                          obs::TraceReport* trace) {
    serve::StreamingEngine eng(*sharded, data, so);
    return ctx.tracer.call("StreamingEngine::run", [&] {
      if (traced) {
        obs::TraceSession session;
        rep = eng.run(streams[rung]);
        *trace = session.report();
      } else {
        rep = eng.run(streams[rung]);
      }
    });
  };
  {
    SpanScope span(ctx.tracer, "phase.warmup");
    serve::StreamingReport warm;
    (void)replay(kNominal, false, warm, nullptr);
  }
  ctx.registry.mark("setup");

  std::vector<OracleCase> cases;
  struct Loop {
    Samples reads;
    std::uint64_t arrivals = 0;
    std::vector<serve::StreamingReport> first;  ///< first pass, per rung
    obs::QueryTrace totals;                     ///< nominal rung, traced
    std::uint64_t traced_answers = 0;
    std::string trace_json;
  };
  std::vector<std::uint64_t> expect;
  const auto loop = [&](double seconds, bool traced, const std::string& label) {
    Loop lp;
    SpanScope span(ctx.tracer, "loop." + label);
    timed_loop(seconds, rates.size(), [&](std::size_t pass, std::size_t i) {
      serve::StreamingReport rep;
      obs::TraceReport trace;
      lp.reads.add(replay(i, traced, rep, &trace));
      lp.arrivals += rep.arrivals;
      ctx.out.attempted += rep.arrivals;
      // Late and shed arrivals are the load test's measured outcome; an
      // admitted arrival without an exact answer, or a degraded one, fails.
      std::uint64_t bad = rep.admitted - std::min(rep.admitted, rep.answered);
      for (const serve::StreamedQuery& q : rep.queries) {
        const bool degraded = q.status == knn::QueryStatus::kDegradedFallback;
        if (!q.shed && (q.neighbors.size() != kK || degraded)) ++bad;
      }
      if (bad > 0) ctx.out.fail(bad, std::to_string(bad) + " arrivals unanswered or degraded");
      const std::uint64_t fp = stream_fingerprint(rep);
      if (pass == 0 && expect.size() < rates.size()) expect.push_back(fp);
      if (fp != expect[i]) {
        ctx.out.fail(rep.arrivals, "stream rung " + std::to_string(i) + " (" + label +
                                       ") differs from its first replay");
      }
      if (pass > 0) return;
      if (traced && i == kNominal) {
        add_totals(lp.totals, trace);
        lp.traced_answers = rep.answered;
        lp.trace_json = obs::trace_to_json(trace);
      }
      if (!traced) {
        for (std::size_t q = 0; q < rep.queries.size(); q += 64) {
          if (rep.queries[q].shed) continue;
          const auto p = streams[i].queries[q];
          cases.push_back({{p.begin(), p.end()}, rep.queries[q].neighbors, kNoExclude});
        }
      }
      lp.first.push_back(std::move(rep));
      if (i + 1 == rates.size()) ctx.registry.mark(label + ".pass0");
    });
    ctx.registry.mark(label + ".rest");
    return lp;
  };

  const double seconds = ctx.opts.trace ? ctx.opts.seconds / 2 : ctx.opts.seconds;
  const Loop base = loop(seconds, false, "untraced");
  check_oracle(ctx, data, cases);
  ctx.registry.mark("oracle");
  const serve::StreamingReport& nominal = base.first[kNominal];

  if (!ctx.opts.trace) {
    EndToEnd e;
    e.setup = &setup;
    e.reads = &base.reads;
    e.writes = &setup;
    e.work = static_cast<double>(base.arrivals);
    e.busy_s = base.reads.total_s();
    e.timed_calls = base.reads.count();
    e.modeled_query_us =
        ratio(nominal.latency_us.sum(), nominal.latency_us.count());
    e.bytes_per_query =
        ratio(nominal.accessed_bytes, nominal.answered);
    std::vector<double> latencies;
    for (const serve::StreamedQuery& q : nominal.queries) {
      if (!q.shed) latencies.push_back(static_cast<double>(q.latency_us));
    }
    std::tie(e.modeled_p50_us, e.modeled_p99_us) = median_and_tail(latencies);
    e.modeled_samples = latencies.size();
    e.modeled_max_rate_qps = max_rate(rates, base.first, kDeadlineUs);
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const std::string rung = "rate_" + std::to_string(static_cast<int>(rates[i])) + ".";
      const serve::StreamingReport& r = base.first[i];
      const auto n = static_cast<std::size_t>(r.answered);
      ctx.out.details.push_back({rung + "p50_us", static_cast<double>(r.p50_us()), "us", n});
      ctx.out.details.push_back({rung + "p99_us", static_cast<double>(r.p99_us()), "us", n});
      ctx.out.details.push_back({rung + "shed", static_cast<double>(r.shed), "count", 0});
    }
    report_end_to_end(ctx.out, e);
    return {};
  }

  const Loop tr = loop(seconds, true, "traced");
  Layers l;
  shard_layers(ctx, *sharded, l);
  l.trace_totals = tr.totals;
  l.answers = tr.traced_answers;
  l.exec = tr.first[kNominal].exec;
  l.untraced_ns_per_answer = ratio(base.reads.total_s() * 1e9, base.arrivals);
  l.traced_ns_per_answer = ratio(tr.reads.total_s() * 1e9, tr.arrivals);
  l.call_s = ctx.tracer.self_seconds("loop.traced");
  l.shard_queries = ctx.registry.delta("traced.pass0", "engine.shard.queries");
  l.stream = &tr.first[kNominal];
  report_layers(ctx, l);
  return tr.trace_json;
}

// ---------------------------------------------------------------------------
// Churn: reads, inserts and erases against one sharded engine, checked
// against a flat model of the alive points.

std::string churn_noaa100k(Context& ctx) {
  const std::uint64_t seed = ctx.opts.seed;
  const PointSet data = noaa(scaled(ctx.opts, 2000, 40), 50);
  const std::size_t dims = data.dims();
  const PointSet hot = data::sample_queries(data, 256, 0.01, derive_seed(seed, 11));
  const std::size_t warmup_ops = scaled(ctx.opts, 200, 8);
  const std::size_t timed_ops = scaled(ctx.opts, 8000, 160);
  // Ops come in blocks of 3 reads and 1 write in shuffled order, and each
  // read takes exactly 5 of its 16 queries from the hot set: fixed shares
  // instead of independent draws keep the tails from moving with the seed.
  constexpr std::size_t kBlock = 4;
  constexpr std::size_t kReadQueries = 16;
  constexpr std::size_t kHotPerRead = 5;
  constexpr std::size_t kOracleEvery = 25;  // reads

  std::unique_ptr<shard::ShardedEngine> eng;
  Samples setup;
  const auto build = [&] {
    eng.reset();
    ctx.tracer.call("ShardedEngine()", [&] {
      eng = std::make_unique<shard::ShardedEngine>(data, sharded_options(4096));
    });
  };
  run_setup(ctx, setup, build);

  // The model: alive global ids in ascending order with their coordinates.
  // Inserts get the next global id, so appending keeps the order, and
  // brute-force ids over the model map monotonically to global ids.
  struct Model {
    std::vector<PointId> ids;
    std::vector<Scalar> coords;
    PointId next_id = 0;
    Rng rng{0};
    std::size_t ops = 0;
    std::size_t write_slot = 0;  ///< position of the write in the current block
    std::size_t reads = 0;
  } m;
  const auto reset = [&] {
    m.ids.resize(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) m.ids[i] = static_cast<PointId>(i);
    m.coords.assign(data.raw().begin(), data.raw().end());
    m.next_id = static_cast<PointId>(data.size());
    m.rng = Rng(derive_seed(seed, 9));
    m.ops = 0;
    m.reads = 0;
  };
  const auto jittered_alive = [&] {
    const std::size_t i = m.rng.next_below(m.ids.size());
    std::vector<Scalar> p(m.coords.begin() + static_cast<std::ptrdiff_t>(i * dims),
                          m.coords.begin() + static_cast<std::ptrdiff_t>((i + 1) * dims));
    for (Scalar& v : p) v += static_cast<Scalar>(m.rng.normal(0.0, 0.01));
    return p;
  };

  std::vector<std::uint64_t> expect;
  struct Loop {
    Samples reads;
    Samples writes;
    std::uint64_t ops = 0;
    std::uint64_t read_queries = 0;
    Modeled modeled;  ///< first pass reads
    obs::QueryTrace totals;
    std::string trace_json;
  };
  std::size_t oracle_checks = 0;

  // One op: generate it from the model (untimed), time the library calls,
  // then fold the outcome into the model and the checks.
  const auto do_op = [&](Loop& lp, bool traced, bool record, std::size_t pass) {
    if (m.ops % kBlock == 0) m.write_slot = m.rng.next_below(kBlock);
    const bool write = m.ops++ % kBlock == m.write_slot;
    std::uint64_t fp = write ? 1 : 0;
    if (!write) {
      std::array<bool, kReadQueries> from_hot{};
      std::fill_n(from_hot.begin(), kHotPerRead, true);
      for (std::size_t j = kReadQueries - 1; j > 0; --j) {
        std::swap(from_hot[j], from_hot[m.rng.next_below(j + 1)]);
      }
      PointSet q(dims);
      for (const bool h : from_hot) {
        if (h) {
          q.append(hot[m.rng.next_below(hot.size())]);
        } else {
          q.append(jittered_alive());
        }
      }
      knn::BatchResult r;
      obs::TraceReport trace;
      const std::int64_t ns =
          traced ? ctx.tracer.call("ShardedEngine::run_traced",
                                   [&] {
                                     shard::ShardedEngine::TracedRun t = eng->run_traced(q);
                                     r = std::move(t.result);
                                     trace = std::move(t.trace);
                                   })
                 : ctx.tracer.call("ShardedEngine::run", [&] { r = eng->run(q); });
      fp = fingerprint_mix(fp, fingerprint(r));
      if (!record) return fp;
      lp.reads.add(ns);
      lp.read_queries += q.size();
      if (const std::size_t bad = count_not_ok(r); bad > 0) {
        ctx.out.fail(bad, std::to_string(bad) + " churn answers not kOk");
      }
      if (pass == 0) {
        lp.modeled.add(r);
        if (traced) {
          add_totals(lp.totals, trace);
          if (lp.trace_json.empty()) lp.trace_json = obs::trace_to_json(trace);
        }
      }
      if (pass == 0 && !traced && ++m.reads % kOracleEvery == 0) {
        SpanScope span(ctx.tracer, "phase.oracle");
        const PointSet alive(dims, m.coords);
        for (std::size_t j = 0; j < q.size(); ++j) {
          std::vector<KnnHeap::Entry> want = brute_force(alive, q[j], kK, kNoExclude);
          for (KnnHeap::Entry& e : want) e.id = m.ids[e.id];
          ++oracle_checks;
          if (!same_neighbors(r.queries[j].neighbors, want)) {
            ctx.out.fail(1, "churn read differs from the brute-force model");
          }
        }
      }
      return fp;
    }
    // A write replaces one point: erase a random alive id, then insert a
    // jittered copy of another alive point. Insert and erase have distinct
    // cost modes, so timing them as separate ops would put the write median
    // in the gap between the two; the pair is one write.
    const std::size_t i = m.rng.next_below(m.ids.size());
    const PointId victim = m.ids[i];
    bool erased = false;
    std::int64_t ns =
        ctx.tracer.call("ShardedEngine::erase", [&] { erased = eng->erase(victim); });
    if (!erased) ctx.out.fail(1, "erase of an alive id returned false");
    m.ids.erase(m.ids.begin() + static_cast<std::ptrdiff_t>(i));
    m.coords.erase(m.coords.begin() + static_cast<std::ptrdiff_t>(i * dims),
                   m.coords.begin() + static_cast<std::ptrdiff_t>((i + 1) * dims));
    const std::vector<Scalar> p = jittered_alive();
    PointId id = 0;
    ns += ctx.tracer.call("ShardedEngine::insert", [&] { id = eng->insert(p); });
    if (id != m.next_id) ctx.out.fail(1, "insert returned an unexpected global id");
    m.ids.push_back(id);
    m.coords.insert(m.coords.end(), p.begin(), p.end());
    ++m.next_id;
    if (record) lp.writes.add(ns);
    return fingerprint_mix(fingerprint_mix(fp, victim), id);
  };

  // Every pass replays the same op sequence from a fresh engine and model, so
  // its counted work must repeat op for op.
  bool fresh = true;  // the setup engine has not served anything yet
  const auto loop = [&](double seconds, bool traced, const std::string& label) {
    Loop lp;
    SpanScope span(ctx.tracer, "loop." + label);
    timed_loop(seconds, timed_ops, [&](std::size_t pass, std::size_t i) {
      if (i == 0) {
        if (!fresh) build();
        fresh = false;
        reset();
        SpanScope warm(ctx.tracer, "phase.warmup");
        for (std::size_t w = 0; w < warmup_ops; ++w) (void)do_op(lp, traced, false, pass);
      }
      const std::uint64_t fp = do_op(lp, traced, true, pass);
      ++lp.ops;
      ++ctx.out.attempted;
      if (pass == 0 && expect.size() < timed_ops) expect.push_back(fp);
      if (fp != expect[i]) {
        ctx.out.fail(1, "churn op " + std::to_string(i) + " (" + label + ") differs");
      }
      if (pass == 0 && i + 1 == timed_ops) ctx.registry.mark(label + ".pass0");
    });
    ctx.registry.mark(label + ".rest");
    return lp;
  };

  ctx.registry.mark("setup");
  const double seconds = ctx.opts.trace ? ctx.opts.seconds / 2 : ctx.opts.seconds;
  const Loop base = loop(seconds, false, "untraced");
  if (oracle_checks == 0) ctx.out.fail(1, "churn ran no oracle checks");

  if (!ctx.opts.trace) {
    EndToEnd e = from_modeled(base.modeled);
    e.setup = &setup;
    e.reads = &base.reads;
    e.writes = &base.writes;
    e.work = static_cast<double>(base.ops);
    e.busy_s = base.reads.total_s() + base.writes.total_s();
    e.timed_calls = base.reads.count() + base.writes.count();
    report_end_to_end(ctx.out, e);
    return {};
  }

  const Loop tr = loop(seconds, true, "traced");
  Layers l;
  shard_layers(ctx, *eng, l);
  l.modeled = &tr.modeled;
  l.trace_totals = tr.totals;
  l.answers = tr.modeled.answers;
  l.exec = tr.modeled.exec;
  l.untraced_ns_per_answer = ratio(base.reads.total_s() * 1e9, base.read_queries);
  l.traced_ns_per_answer = ratio(tr.reads.total_s() * 1e9, tr.read_queries);
  l.call_s = ctx.tracer.self_seconds("loop.traced");
  l.shard_queries = ctx.registry.delta("traced.pass0", "engine.shard.queries");
  report_layers(ctx, l);
  return tr.trace_json;
}

}  // namespace

const std::vector<std::pair<std::string, Workload>>& workloads() {
  static const std::vector<std::pair<std::string, Workload>> all = {
      {"knn_noaa1m", knn_noaa1m},         {"knn_noaa6k_hot", knn_noaa6k_hot},
      {"knn_clustered64", knn_clustered64}, {"allknn_noaa100k", allknn_noaa100k},
      {"stream_noaa100k", stream_noaa100k}, {"churn_noaa100k", churn_noaa100k},
  };
  return all;
}

}  // namespace hostbench

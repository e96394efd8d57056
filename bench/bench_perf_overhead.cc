// §6.5 performance overhead: google-benchmark microbenchmarks of the
// reconstruction pipeline. The paper reports a single TraceWeaver instance
// mapping 1000 spans in under 5 seconds (~200 RPS per container); this
// binary measures end-to-end reconstruction throughput plus the major
// stages (enumeration+ranking via single iteration, GMM fitting, MWIS).
//
// After the microbenchmarks, main() runs a hand-timed thread sweep of the
// parallel reconstruction pipeline over the multi-container hotel workload
// and writes the results to BENCH_perf.json (see WriteBenchJson).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

#include "callgraph/inference.h"
#include "callgraph/serialization.h"
#include "common.h"
#include "core/mis_solver.h"
#include "core/online.h"
#include "obs/provenance.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "stats/gmm.h"
#include "trace/checkpoint.h"
#include "trace/jsonl_io.h"
#include "trace/trace_record.h"
#include "util/rng.h"

namespace traceweaver::bench {
namespace {

/// Commit sha of the interleaved baseline build, from --baseline_commit=.
/// Empty means no seed-worktree comparison ran this invocation; the JSON
/// is then stamped UNANCHORED and a warning goes to stderr.
std::string g_baseline_commit;  // NOLINT(runtime/string)

const Dataset& HotelDataset(double rps) {
  static std::map<double, Dataset> cache;
  auto it = cache.find(rps);
  if (it == cache.end()) {
    it = cache.emplace(rps,
                       Prepare(sim::MakeHotelReservationApp(), rps, 2.0))
             .first;
  }
  return it->second;
}

void BM_ReconstructHotel(benchmark::State& state) {
  const double rps = static_cast<double>(state.range(0));
  const Dataset& data = HotelDataset(rps);
  TraceWeaver weaver(data.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(weaver.Reconstruct(data.spans));
  }
  state.counters["spans"] =
      static_cast<double>(data.spans.size());
  state.counters["spans/s"] = benchmark::Counter(
      static_cast<double>(data.spans.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReconstructHotel)
    ->Arg(200)
    ->Arg(600)
    ->Arg(1200)
    ->Unit(benchmark::kMillisecond);

void BM_SingleIteration(benchmark::State& state) {
  const Dataset& data = HotelDataset(600);
  TraceWeaverOptions opts;
  opts.optimizer.iterate = false;
  TraceWeaver weaver(data.graph, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(weaver.Reconstruct(data.spans));
  }
  state.counters["spans/s"] = benchmark::Counter(
      static_cast<double>(data.spans.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SingleIteration)->Unit(benchmark::kMillisecond);

void BM_GmmBicSweep(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < state.range(0); ++i) {
    samples.push_back(rng.Bernoulli(0.5) ? rng.Normal(0, 1)
                                         : rng.Normal(20, 3));
  }
  GmmFitOptions opts;
  opts.max_components = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitGmmBicSweep(samples, opts));
  }
}
BENCHMARK(BM_GmmBicSweep)->Arg(200)->Arg(1000)->Arg(5000);

void BM_MwisBatch(benchmark::State& state) {
  // A batch-shaped conflict graph: `spans` cliques of K=5 candidates plus
  // sparse cross-clique conflict edges.
  const int spans = static_cast<int>(state.range(0));
  constexpr int kK = 5;
  Rng rng(7);
  MisProblem p;
  p.weights.resize(static_cast<std::size_t>(spans * kK));
  p.adjacency.assign(p.weights.size(), {});
  for (auto& w : p.weights) w = rng.Uniform(1.0, 100.0);
  auto add_edge = [&p](int a, int b) {
    p.adjacency[static_cast<std::size_t>(a)].push_back(b);
    p.adjacency[static_cast<std::size_t>(b)].push_back(a);
  };
  for (int s = 0; s < spans; ++s) {
    for (int i = 0; i < kK; ++i) {
      for (int j = i + 1; j < kK; ++j) add_edge(s * kK + i, s * kK + j);
    }
  }
  for (int e = 0; e < spans * 2; ++e) {
    const int a = static_cast<int>(
        rng.UniformInt(0, spans * kK - 1));
    const int b = static_cast<int>(
        rng.UniformInt(0, spans * kK - 1));
    if (a / kK != b / kK) add_edge(a, b);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMwis(p, 200000));
  }
}
BENCHMARK(BM_MwisBatch)->Arg(10)->Arg(30)->Arg(100);

void BM_CallGraphInference(benchmark::State& state) {
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = static_cast<std::size_t>(state.range(0));
  auto spans =
      sim::RunIsolatedReplay(sim::MakeHotelReservationApp(), iso).spans;
  for (auto _ : state) {
    benchmark::DoNotOptimize(InferCallGraph(spans));
  }
}
BENCHMARK(BM_CallGraphInference)->Arg(10)->Arg(40)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Start-up decode: every byte a resumed `serve` reads before its first
// span (span and record lines, checkpoint, CRC, call graph), each in
// ns/byte at two input sizes so a superlinear decoder shows as a rising
// number.

/// Time per unit of `count` (bytes, lines) per iteration: the inverted
/// per-second rate, printed with an SI prefix (e.g. `2.1ns`).
benchmark::Counter TimePer(std::size_t count) {
  return benchmark::Counter(static_cast<double>(count),
                            benchmark::Counter::kIsIterationInvariantRate |
                                benchmark::Counter::kInvert);
}

/// The first `n` hotel spans (ground truth included), one JSON line each.
std::vector<std::string> SpanLines(std::size_t n) {
  const Dataset& data = HotelDataset(600);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < n && i < data.spans.size(); ++i) {
    lines.push_back(SpanToJson(data.spans[i], /*include_ground_truth=*/true));
  }
  return lines;
}

std::size_t TotalBytes(const std::vector<std::string>& lines) {
  std::size_t bytes = 0;
  for (const std::string& line : lines) bytes += line.size() + 1;
  return bytes;
}

void BM_DecodeSpanLine(benchmark::State& state) {
  const auto lines = SpanLines(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const std::string& line : lines) {
      benchmark::DoNotOptimize(SpanFromJson(line));
    }
  }
  state.counters["per_byte"] = TimePer(TotalBytes(lines));
  state.counters["per_line"] = TimePer(lines.size());
}
BENCHMARK(BM_DecodeSpanLine)->Arg(1000)->Arg(10000);

/// Store records of the first `n` ground-truth hotel traces: root-first
/// spans, true parent edges and one settle event per span, as the
/// committer writes them.
std::vector<std::string> RecordLines(std::size_t n) {
  const Dataset& data = HotelDataset(600);
  std::map<TraceId, TraceRecord> traces;
  for (const Span& s : data.spans) {
    TraceRecord& r = traces[s.true_trace];
    r.spans.push_back(s);
    if (s.true_parent != kInvalidSpanId) {
      r.parents.emplace_back(s.id, s.true_parent);
    } else {
      r.trace_id = s.id;
      r.root_service = s.callee;
      r.root_endpoint = s.endpoint;
    }
    r.provenance.push_back(
        obs::ProvEvent{obs::ProvEventType::kSettled, s.id, 0, ""});
  }
  std::vector<std::string> lines;
  for (auto& [id, r] : traces) {
    if (lines.size() == n) break;
    if (r.trace_id == kInvalidSpanId) continue;
    std::sort(r.parents.begin(), r.parents.end());
    r.start = r.spans.front().client_send;
    r.end = r.spans.front().client_recv;
    r.grade = 'A';
    r.confidence = r.min_confidence = 0.97;
    lines.push_back(TraceRecordToJson(r));
  }
  return lines;
}

void BM_DecodeRecordLine(benchmark::State& state) {
  const auto lines = RecordLines(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const std::string& line : lines) {
      benchmark::DoNotOptimize(TraceRecordFromJson(line));
    }
  }
  state.counters["per_byte"] = TimePer(TotalBytes(lines));
}
BENCHMARK(BM_DecodeRecordLine)->Arg(100)->Arg(1000);

/// A weaver checkpoint (with pending provenance) taken after ingesting the
/// first `n` completion-ordered hotel spans.
std::string WeaverCheckpoint(std::size_t n, const CallGraph& graph) {
  std::vector<Span> stream = HotelDataset(600).spans;
  std::sort(stream.begin(), stream.end(), [](const Span& a, const Span& b) {
    return a.client_recv < b.client_recv;
  });
  obs::ProvenanceLedger ledger;
  OnlineOptions oopts;
  oopts.window = Millis(500);
  oopts.margin = Millis(200);
  oopts.provenance = &ledger;
  OnlineTraceWeaver online(graph, oopts);
  for (std::size_t i = 0; i < n && i < stream.size(); ++i) {
    online.Ingest(stream[i]);
    online.Advance(stream[i].client_recv);
  }
  std::ostringstream out;
  online.SaveCheckpoint(out, {{"source_offset", n}});
  return out.str();
}

void BM_CheckpointResume(benchmark::State& state) {
  const CallGraph& graph = HotelDataset(600).graph;
  const std::string bytes =
      WeaverCheckpoint(static_cast<std::size_t>(state.range(0)), graph);
  obs::ProvenanceLedger ledger;
  OnlineOptions oopts;
  oopts.window = Millis(500);
  oopts.margin = Millis(200);
  oopts.provenance = &ledger;
  OnlineTraceWeaver online(graph, oopts);
  for (auto _ : state) {
    std::istringstream in(bytes);
    std::string error;
    if (!online.LoadCheckpoint(in, &error)) {
      state.SkipWithError(error.c_str());
      break;
    }
  }
  state.counters["per_byte"] = TimePer(bytes.size());
}
BENCHMARK(BM_CheckpointResume)->Arg(2000)->Arg(8000);

void BM_Crc32(benchmark::State& state) {
  std::string bytes(static_cast<std::size_t>(state.range(0)), '\0');
  Rng rng(7);
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes.data(), bytes.size()));
  }
  state.counters["per_byte"] = TimePer(bytes.size());
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(1 << 20);

/// Graph load of the hotel (arg 0) or media (arg 1) graph text.
void BM_GraphLoad(benchmark::State& state) {
  const CallGraph graph =
      state.range(0) == 0
          ? HotelDataset(600).graph
          : Prepare(sim::MakeMediaMicroservicesApp(), 100, 1.0).graph;
  std::ostringstream out;
  WriteCallGraph(out, graph);
  const std::string text = out.str();
  for (auto _ : state) {
    std::istringstream in(text);
    benchmark::DoNotOptimize(ReadCallGraph(in));
  }
  state.counters["per_byte"] = TimePer(text.size());
}
BENCHMARK(BM_GraphLoad)->Arg(0)->Arg(1);

// Every thread-sweep row is timed the same way: kWarmupCalls untimed
// calls, then the best of kTimedCalls timed calls. A row with an
// instrumented variant times both variants in ABBA order (plain first on
// even reps, instrumented first on odd), so neither side always runs
// first and its overhead note is not an order effect.
constexpr int kWarmupCalls = 1;
constexpr int kTimedCalls = 9;

/// Wall time of one call of `fn`, in seconds.
template <typename Fn>
double TimeOnce(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-kTimedCalls seconds of `fn`, after kWarmupCalls untimed calls.
template <typename Fn>
double BestOfSeconds(Fn&& fn) {
  for (int w = 0; w < kWarmupCalls; ++w) fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < kTimedCalls; ++r) best = std::min(best, TimeOnce(fn));
  return best;
}

/// Best-of-kTimedCalls seconds of `plain` and of `instrumented`, each
/// after kWarmupCalls untimed calls, timed in ABBA order.
struct PairedSeconds {
  double plain = std::numeric_limits<double>::infinity();
  double instrumented = std::numeric_limits<double>::infinity();
  double overhead_pct() const { return (instrumented / plain - 1.0) * 100.0; }
};
template <typename Plain, typename Instrumented>
PairedSeconds InterleavedBestOf(Plain&& plain, Instrumented&& instrumented) {
  for (int w = 0; w < kWarmupCalls; ++w) {
    plain();
    instrumented();
  }
  PairedSeconds best;
  for (int r = 0; r < kTimedCalls; ++r) {
    if (r % 2 == 0) {
      best.plain = std::min(best.plain, TimeOnce(plain));
      best.instrumented = std::min(best.instrumented, TimeOnce(instrumented));
    } else {
      best.instrumented = std::min(best.instrumented, TimeOnce(instrumented));
      best.plain = std::min(best.plain, TimeOnce(plain));
    }
  }
  return best;
}

/// Hand-timed sweep: full reconstruction of the multi-container hotel
/// workload at 1, 2, 4 and 8 threads plus the single-iteration
/// (enumeration+ranking+solving) configuration, recorded to
/// BENCH_perf.json. Every row gets the same warm-up and repetition count
/// (BestOfSeconds / InterleavedBestOf). The parallel pipeline is
/// bit-deterministic, so every thread count must reproduce the serial
/// assignment exactly -- verified here on the fly.
void RunThreadSweep() {
  const Dataset& data = HotelDataset(600);
  std::vector<BenchRecord> records;
  const auto record = [&](const std::string& name, std::size_t threads,
                          double secs) {
    BenchRecord r;
    r.name = name;
    r.threads = threads;
    r.spans = data.spans.size();
    r.ns_per_span = secs * 1e9 / static_cast<double>(data.spans.size());
    r.spans_per_sec = static_cast<double>(data.spans.size()) / secs;
    records.push_back(r);
    std::printf("%-24s threads=%zu  %8.1f ns/span  %10.0f spans/s\n",
                name.c_str(), threads, records.back().ns_per_span,
                records.back().spans_per_sec);
  };

  ParentAssignment serial;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    TraceWeaverOptions opts;
    opts.num_threads = threads;
    TraceWeaver weaver(data.graph, opts);
    ParentAssignment got;
    const double secs =
        BestOfSeconds([&] { got = weaver.Reconstruct(data.spans).assignment; });
    if (threads == 1) {
      serial = got;
    } else if (got != serial) {
      std::fprintf(stderr,
                   "FATAL: %zu-thread assignment differs from serial\n",
                   threads);
      std::exit(1);
    }
    record("reconstruct", threads, secs);
  }
  {
    // Metrics-enabled serial run: the instrumentation must not change the
    // assignment (bit-identical to the plain serial run) and its cost is
    // recorded in the note field. Plain and instrumented calls are timed
    // in ABBA order and compared min-to-min, so neither run order nor
    // machine-load drift enters the overhead estimate.
    obs::MetricsRegistry registry;
    TraceWeaverOptions mopts;
    mopts.num_threads = 1;
    mopts.metrics = &registry;
    TraceWeaver instrumented(data.graph, mopts);
    TraceWeaverOptions popts;
    popts.num_threads = 1;
    TraceWeaver plain(data.graph, popts);

    ParentAssignment got;
    const PairedSeconds t = InterleavedBestOf(
        [&] { benchmark::DoNotOptimize(plain.Reconstruct(data.spans)); },
        [&] { got = instrumented.Reconstruct(data.spans).assignment; });
    if (got != serial) {
      std::fprintf(stderr,
                   "FATAL: metrics-enabled assignment differs from plain\n");
      std::exit(1);
    }
    record("reconstruct_metrics", 1, t.instrumented);
    char note[128];
    std::snprintf(note, sizeof(note),
                  "metrics on; overhead %+.1f%% vs interleaved plain serial; "
                  "assignment bit-identical",
                  t.overhead_pct());
    records.back().note = note;
    std::printf("  %s\n", note);
    const std::string report = WriteRunReportJson("perf", registry);
    std::printf("wrote %s\n", report.c_str());
  }
  {
    // Quality-enabled serial run, measured like the metrics run above:
    // ABBA-interleaved with a plain run, min-to-min. The quality pass is
    // observation-only, so the assignment must stay bit-identical and the
    // cost must stay small (target: <= 3% overhead).
    TraceWeaverOptions qopts;
    qopts.num_threads = 1;
    qopts.compute_quality = true;
    TraceWeaver quality(data.graph, qopts);
    TraceWeaverOptions popts;
    popts.num_threads = 1;
    TraceWeaver plain(data.graph, popts);

    ParentAssignment got;
    const PairedSeconds t = InterleavedBestOf(
        [&] { benchmark::DoNotOptimize(plain.Reconstruct(data.spans)); },
        [&] { got = quality.Reconstruct(data.spans).assignment; });
    if (got != serial) {
      std::fprintf(stderr,
                   "FATAL: quality-enabled assignment differs from plain\n");
      std::exit(1);
    }
    record("reconstruct_quality", 1, t.instrumented);
    char note[128];
    std::snprintf(note, sizeof(note),
                  "quality on; overhead %+.1f%% vs interleaved plain serial; "
                  "assignment bit-identical",
                  t.overhead_pct());
    records.back().note = note;
    std::printf("  %s\n", note);
  }
  {
    // Provenance-enabled online streaming run (DESIGN.md §4j), measured
    // like the metrics/quality runs above: ABBA-interleaved with a
    // ledger-less run of the identical stream, min-to-min. The ledger is
    // observation-only, so the committed assignment must stay
    // bit-identical and the cost must stay under the 3% gate.
    std::vector<Span> stream = data.spans;
    std::sort(stream.begin(), stream.end(),
              [](const Span& a, const Span& b) {
                return a.client_recv < b.client_recv;
              });
    const auto run = [&](obs::ProvenanceLedger* ledger) {
      OnlineOptions oopts;
      oopts.window = Millis(500);
      oopts.margin = Millis(200);
      oopts.skew_correct = true;  // One skew_correct event per ingest.
      oopts.provenance = ledger;
      OnlineTraceWeaver online(data.graph, oopts);
      for (const Span& span : stream) {
        online.Ingest(span);
        online.Advance(span.client_recv);
      }
      online.Flush();
      return online.assignment();
    };
    ParentAssignment with_ledger;
    ParentAssignment without_ledger;
    const PairedSeconds t = InterleavedBestOf(
        [&] { without_ledger = run(nullptr); },
        [&] {
          // Fresh ledger per call so every call records the same events.
          obs::ProvenanceLedger ledger;
          with_ledger = run(&ledger);
        });
    if (with_ledger != without_ledger) {
      std::fprintf(stderr,
                   "FATAL: provenance-enabled assignment differs from plain\n");
      std::exit(1);
    }
    record("online_provenance", 1, t.instrumented);
    const double overhead_pct = t.overhead_pct();
    char note[128];
    std::snprintf(note, sizeof(note),
                  "provenance on; overhead %+.1f%% vs interleaved plain "
                  "online (gate <= 3%%); assignment bit-identical",
                  overhead_pct);
    records.back().note = note;
    std::printf("  %s\n", note);
    if (overhead_pct > 3.0) {
      std::fprintf(stderr,
                   "WARNING: provenance overhead %.1f%% exceeds the 3%% "
                   "gate (DESIGN.md §4j)\n",
                   overhead_pct);
    }
  }
  {
    TraceWeaverOptions opts;
    opts.optimizer.iterate = false;
    TraceWeaver weaver(data.graph, opts);
    const double secs = BestOfSeconds(
        [&] { benchmark::DoNotOptimize(weaver.Reconstruct(data.spans)); });
    record("single_iteration", 1, secs);
  }
  if (g_baseline_commit.empty()) {
    std::fprintf(
        stderr,
        "\n"
        "********************************************************************\n"
        "* WARNING: UNANCHORED PERF RUN                                     *\n"
        "* No --baseline_commit=<sha> was given, so no interleaved          *\n"
        "* seed-worktree build ran alongside this one. The numbers in       *\n"
        "* BENCH_perf.json reflect only this machine at this moment and     *\n"
        "* MUST NOT be compared against a previously committed record.      *\n"
        "* To anchor: build the seed commit in a git worktree, interleave   *\n"
        "* its runs with this binary's, and rerun with                      *\n"
        "*   bench_perf --baseline_commit=$(git rev-parse --short HEAD~N)   *\n"
        "********************************************************************\n"
        "\n");
  }
  const std::string path = WriteBenchJson("perf", records, g_baseline_commit);
  std::printf("wrote %s (baseline_commit=%s)\n", path.c_str(),
              g_baseline_commit.empty() ? "UNANCHORED"
                                        : g_baseline_commit.c_str());
}

}  // namespace
}  // namespace traceweaver::bench

int main(int argc, char** argv) {
  // Strip --baseline_commit=<sha> before google-benchmark sees the argv;
  // it rejects flags it does not recognise.
  traceweaver::bench::g_baseline_commit =
      traceweaver::bench::TakeBaselineCommit(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  traceweaver::bench::RunThreadSweep();
  return 0;
}

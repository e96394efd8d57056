// traceweaver — command-line driver for the span-ingestion workflow: the
// simulators, offline reconstruction and evaluation (§5.3 offline mode),
// the streaming `serve` front end of serve/pipeline.h (§5.3 online mode)
// and offline access to its trace store. Usage() below is the reference
// for every command and flag; docs/OPERATIONS.md covers running `serve`.
//
// Apps: hotel | media | nodejs | chain | ab. Spans JSONL written by
// `simulate`/`replay` carries ground truth so `evaluate` can score
// reconstructions; `reconstruct` never reads those fields.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cfloat>
#include <charconv>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "callgraph/inference.h"
#include "core/online.h"
#include "core/skew_estimator.h"
#include "callgraph/serialization.h"
#include "collector/capture.h"
#include "core/accuracy.h"
#include "core/explain.h"
#include "core/trace_weaver.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "obs/prometheus.h"
#include "obs/stage_timer.h"
#include "obs/run_report.h"
#include "obs/provenance.h"
#include "serve/http_server.h"
#include "serve/query_service.h"
#include "serve/pipeline.h"
#include "sim/apps.h"
#include "sim/fault_injector.h"
#include "sim/workload.h"
#include "store/committer.h"
#include "store/store.h"
#include "trace/jaeger_export.h"
#include "trace/jsonl_io.h"
#include "trace/span_validator.h"
#include "trace/trace_record.h"

namespace {

using namespace traceweaver;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  traceweaver simulate [fault flags] <hotel|media|nodejs|chain|ab> "
      "<rps> <seconds> [seed]\n"
      "  traceweaver replay <hotel|media|nodejs|chain|ab> "
      "[requests_per_root]\n"
      "  traceweaver inject-faults [fault flags] <spans.jsonl>\n"
      "  traceweaver infer-graph <spans.jsonl>\n"
      "  traceweaver reconstruct [flags] <graph.txt> <spans.jsonl>\n"
      "  traceweaver evaluate [flags] <graph.txt> <spans.jsonl>\n"
      "  traceweaver export-jaeger [flags] <graph.txt> <spans.jsonl>\n"
      "  traceweaver explain [flags] <graph.txt> <spans.jsonl> "
      "<parent_span_id>\n"
      "  traceweaver serve [flags] <graph.txt> <spans.jsonl>\n"
      "  traceweaver query [flags] <store-dir> [trace_id]\n"
      "  traceweaver provenance <store-dir> <trace_id>\n"
      "  traceweaver sort-spans <spans.jsonl>\n"
      "\n"
      "flags (serve):\n"
      "  --window-ms=N        tumbling-window width (default 2000)\n"
      "  --margin-ms=N        close margin past the window end (default "
      "500)\n"
      "  --deadline-ms=N      per-window close deadline driving the\n"
      "                       overload degradation ladder (0 = off)\n"
      "  --max-buffer-spans=N / --max-buffer-bytes=N\n"
      "                       span-buffer budget; breach sheds oldest\n"
      "                       windows as orphans (0 = unbounded)\n"
      "  --checkpoint-dir=D   write CRC-guarded checkpoints to one file,\n"
      "                       D/checkpoint.jsonl (schema v3; weaver,\n"
      "                       committer and sampler sections; one\n"
      "                       tmp+rename per checkpoint)\n"
      "  --checkpoint-every=N spans between snapshots (default 2000)\n"
      "  --resume             restore from --checkpoint-dir and continue\n"
      "                       at the saved source offset\n"
      "  --retries=N          source open/read retries with exponential\n"
      "                       backoff (default 5)\n"
      "  --final              emit only the final assignment union at\n"
      "                       EOF instead of per-window streaming lines\n"
      "  --store-dir=D        commit settled traces to the queryable\n"
      "                       store at D (implies --quality; segment\n"
      "                       files docs/OPERATIONS.md)\n"
      "  --store-segment-traces=N\n"
      "                       traces per sealed segment (default 256)\n"
      "  --cache-traces=N     hot-trace LRU capacity (default 128)\n"
      "  --http-port=P        serve the HTTP query API (docs/API.md) on\n"
      "                       127.0.0.1:P (0 = ephemeral, printed on\n"
      "                       stderr; requires --store-dir)\n"
      "  --http-threads=N     HTTP worker threads (default 4)\n"
      "  --linger             after EOF keep serving HTTP until SIGINT/\n"
      "                       SIGTERM\n"
      "  --no-provenance      disable the decision-provenance ledger\n"
      "                       (default on with --store-dir; committed\n"
      "                       traces then carry no provenance block)\n"
      "  --self-trace         commit one synthetic pipeline trace per\n"
      "                       window under the reserved root service\n"
      "                       _tw.pipeline (requires --store-dir)\n"
      "  --tail-sample=P      confidence-driven tail sampler (requires\n"
      "                       --store-dir): keep anomalous / low-grade /\n"
      "                       high-latency / shed-adjacent traces, keep\n"
      "                       confident boring ones with probability P,\n"
      "                       shed the rest before store commit\n"
      "                       (tw_sample_* counters, provenance\n"
      "                       sampled_out; state rides the checkpoint)\n"
      "\n"
      "flags (query):\n"
      "  --service=S          exact root-service match\n"
      "  --from=NS / --to=NS  time-range overlap filter (nanoseconds)\n"
      "  --grade=G            worst acceptable grade A..D (default D)\n"
      "  --min-confidence=X   minimum trace confidence\n"
      "  --limit=N            stop after N matches\n"
      "  --full               print full trace records instead of\n"
      "                       summaries\n"
      "\n"
      "flags (reconstruction commands):\n"
      "  --threads=N         worker threads (default: all hardware\n"
      "                      threads); output is identical for every N\n"
      "  --quality           compute the trace-quality report (confidence\n"
      "                      grades, tw_quality_* metrics; adds tw.* span\n"
      "                      tags to export-jaeger, calibration to\n"
      "                      evaluate)\n"
      "  --min-confidence=X  warn on stderr when the mean assignment\n"
      "                      confidence falls below X (implies --quality)\n"
      "  --json              explain only: emit the candidate table as\n"
      "                      JSON (schema traceweaver.explain.v1)\n"
      "  --ingest=MODE       span validation at load: lenient (default),\n"
      "                      strict, off\n"
      "  --auto-slack        apply the validator's suggested\n"
      "                      constraint_slack_ns (observed clock skew)\n"
      "  --sampling-rate=R   known capture-sampling keep probability of\n"
      "                      the input stream (0 < R <= 1, default 1):\n"
      "                      missing children become expected absences\n"
      "                      (skip budget floor, re-derived skip/keep\n"
      "                      priors, softened orphan penalties)\n"
      "  --twin-window-ns=N  duplicate-twin adoption window: an unassigned\n"
      "                      span whose same-pool sibling was assigned\n"
      "                      within N ns joins that sibling's parent\n"
      "                      (retry/hedge duplicates; default 0 = off)\n"
      "  --skew-correct      estimate per-vantage clock offsets from\n"
      "                      cross-vantage gaps and rewrite timestamps\n"
      "                      into a common frame before reconstruction\n"
      "                      (serve: streaming, checkpointed)\n"
      "  --per-edge-slack    per-(caller, callee) feasibility slack from\n"
      "                      each pair's observed skew spread (implies\n"
      "                      --skew-correct; serve applies it always)\n"
      "  --report            print a run report (stage times, pipeline\n"
      "                      counters) to stderr after reconstruction\n"
      "  --report-json=FILE  write the run report as JSON to FILE\n"
      "  --metrics-out=FILE  write all metrics in Prometheus text format\n"
      "  --profile-stages    print the pipeline stage timers (CPU and\n"
      "                      wall), sorted by self-CPU, to stderr\n"
      "\n"
      "fault flags (simulate, inject-faults):\n"
      "  --drop=P --dup=P    per-record drop / duplication probability\n"
      "  --skew-ns=N         per-vantage clock skew stddev (ns)\n"
      "  --truncate-ns=N     timestamp truncation granularity (ns)\n"
      "  --garble=P          per-record field-garbling probability\n"
      "  --head-sample=P     per-trace keep probability (head sampling,\n"
      "                      whole-trace coherent; default 1.0 = off)\n"
      "  --span-sample=P     per-span keep probability (tail sampling,\n"
      "                      trace-splitting; default 1.0 = off)\n"
      "  --fault-seed=S      corruption RNG seed (default 17)\n");
  return 2;
}

/// Flags shared by the reconstruction commands.
struct CliFlags {
  std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  bool report = false;        ///< Run-report table to stderr.
  bool profile_stages = false;  ///< Stage-timer table to stderr.
  std::string report_json;    ///< Run-report JSON file ("" = off).
  std::string metrics_out;    ///< Prometheus text file ("" = off).
  IngestMode ingest = IngestMode::kLenient;
  bool auto_slack = false;    ///< Apply suggested slack to reconstruction.
  bool skew_correct = false;  ///< Estimate + correct per-vantage skew.
  bool per_edge_slack = false;  ///< Per-edge slack from skew spread.
  bool quality = false;       ///< Compute the trace-quality report.
  double min_confidence = -1.0;  ///< Warn below this mean (< 0 = off).
  bool json = false;          ///< explain: JSON instead of a table.
  double sampling_rate = 1.0;  ///< Known capture-sampling keep prob.
  long long twin_window_ns = 0;  ///< Duplicate-twin adoption window.

  /// Fault-injection spec (simulate / inject-faults only).
  sim::FaultSpec faults;

  // --- serve (streaming online mode) ---
  /// Windowing, store, sampler, provenance, self-trace and checkpoint
  /// settings; the store options also serve `query` / `provenance`.
  serve::PipelineOptions serve;
  bool resume = false;
  int retries = 5;
  bool final_only = false;  ///< Emit only the EOF assignment union.

  // --- HTTP query API (serve), query subcommand ---
  int http_port = -1;                 ///< < 0 = HTTP off; 0 = ephemeral.
  std::size_t http_threads = 4;
  bool linger = false;   ///< Keep serving HTTP after EOF until a signal.
  std::string q_service;              ///< query: --service=.
  long long q_from = std::numeric_limits<long long>::min();
  long long q_to = std::numeric_limits<long long>::max();
  char q_grade = 'D';
  std::size_t q_limit = 0;            ///< 0 = unlimited.
  bool q_full = false;                ///< query: full records.

  bool WantMetrics() const {
    return report || profile_stages || !report_json.empty() ||
           !metrics_out.empty();
  }
};

/// Consumes leading flag arguments (any order), shifting argv. An
/// unknown flag, or a value that is malformed or out of range, is a
/// usage error: prints one line naming the flag and returns false.
bool ParseFlags(int& argc, char**& argv, CliFlags& flags) {
  while (argc > 1 && std::strncmp(argv[1], "--", 2) == 0) {
    const std::string arg = argv[1];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto has = [&](const char* flag) {  // --flag=value
      return eq != std::string::npos && name == flag;
    };
    std::string expected;  // Set when the value is rejected.
    // The whole value as a number in [lo, hi], else `expected` = `what`.
    const auto number = [&](auto lo, auto hi, const char* what) {
      decltype(lo) v{};
      const char* last = value.data() + value.size();
      const auto [end, ec] = std::from_chars(value.data(), last, v);
      if (ec != std::errc() || end != last || !(v >= lo && v <= hi)) {
        expected = what;
      }
      return v;
    };
    const auto count = [&] {
      return number(0LL, LLONG_MAX, "a non-negative integer");
    };
    const auto prob = [&] {
      return number(0.0, 1.0, "a probability in [0, 1]");
    };
    // Up to ~106 days, so sums of durations stay inside DurationNs.
    const auto millis = [&] {
      return Millis(static_cast<double>(number(
          0LL, std::numeric_limits<DurationNs>::max() / 1'000'000'000,
          "a duration in milliseconds")));
    };
    serve::PipelineOptions& sv = flags.serve;
    if (has("--threads")) {
      flags.threads = std::max<std::size_t>(1, count());
    } else if (arg == "--report") {
      flags.report = true;
    } else if (arg == "--profile-stages") {
      flags.profile_stages = true;
    } else if (has("--report-json")) {
      flags.report_json = value;
    } else if (has("--metrics-out")) {
      flags.metrics_out = value;
    } else if (has("--ingest")) {
      flags.ingest = value == "strict" ? IngestMode::kStrict
                     : value == "off"  ? IngestMode::kOff
                                       : IngestMode::kLenient;
      if (value != "lenient" && value != "strict" && value != "off") {
        expected = "lenient, strict or off";
      }
    } else if (arg == "--auto-slack") {
      flags.auto_slack = true;
    } else if (arg == "--skew-correct") {
      flags.skew_correct = true;
    } else if (arg == "--per-edge-slack") {
      // Slack derivation needs the estimator, so this implies correction.
      flags.per_edge_slack = true;
      flags.skew_correct = true;
    } else if (arg == "--quality") {
      flags.quality = true;
    } else if (has("--min-confidence")) {
      flags.min_confidence = number(-DBL_MAX, DBL_MAX, "a number");
      flags.quality = true;
    } else if (arg == "--json") {
      flags.json = true;
    } else if (has("--sampling-rate")) {
      flags.sampling_rate = number(DBL_MIN, 1.0, "a probability in (0, 1]");
    } else if (has("--twin-window-ns")) {
      flags.twin_window_ns = static_cast<long long>(count());
    } else if (has("--drop")) {
      flags.faults.drop_rate = prob();
    } else if (has("--dup")) {
      flags.faults.duplicate_rate = prob();
    } else if (has("--skew-ns")) {
      flags.faults.skew_stddev_ns = static_cast<DurationNs>(count());
    } else if (has("--truncate-ns")) {
      flags.faults.truncate_granularity_ns = static_cast<DurationNs>(count());
    } else if (has("--garble")) {
      flags.faults.garble_rate = prob();
    } else if (has("--head-sample")) {
      flags.faults.head_sample_rate = prob();
    } else if (has("--span-sample")) {
      flags.faults.tail_sample_rate = prob();
    } else if (has("--fault-seed")) {
      flags.faults.seed = count();
    } else if (has("--window-ms")) {
      sv.online.window = millis();
    } else if (has("--margin-ms")) {
      sv.online.margin = millis();
    } else if (has("--deadline-ms")) {
      sv.online.window_close_deadline = millis();
    } else if (has("--max-buffer-spans")) {
      sv.online.max_buffer_spans = static_cast<std::size_t>(count());
    } else if (has("--max-buffer-bytes")) {
      sv.online.max_buffer_bytes = static_cast<std::size_t>(count());
    } else if (has("--checkpoint-dir")) {
      sv.checkpoint_dir = value;
    } else if (has("--checkpoint-every")) {
      sv.checkpoint_every = std::max<std::size_t>(1, count());
    } else if (arg == "--resume") {
      flags.resume = true;
    } else if (has("--retries")) {
      flags.retries = number(0, 1000, "a retry count in [0, 1000]");
    } else if (arg == "--final") {
      flags.final_only = true;
    } else if (has("--store-dir")) {
      sv.store_dir = value;
    } else if (has("--store-segment-traces")) {
      sv.store.segment_traces = std::max<std::size_t>(1, count());
    } else if (has("--cache-traces")) {
      sv.store.cache_traces = static_cast<std::size_t>(count());
    } else if (has("--http-port")) {
      flags.http_port = number(0, 65535, "a port in [0, 65535]");
    } else if (has("--http-threads")) {
      flags.http_threads = std::max<std::size_t>(1, count());
    } else if (arg == "--linger") {
      flags.linger = true;
    } else if (arg == "--no-provenance") {
      sv.provenance = false;
    } else if (arg == "--self-trace") {
      sv.self_trace = true;
    } else if (has("--tail-sample")) {
      sv.tail_sampler.emplace().keep_rate = prob();
    } else if (has("--service")) {
      flags.q_service = value;
    } else if (has("--from")) {
      flags.q_from = number(LLONG_MIN, LLONG_MAX, "an integer");
    } else if (has("--to")) {
      flags.q_to = number(LLONG_MIN, LLONG_MAX, "an integer");
    } else if (has("--grade")) {
      flags.q_grade = static_cast<char>(
          std::toupper(static_cast<unsigned char>(value[0])));
      if (value.size() != 1 || flags.q_grade < 'A' || flags.q_grade > 'D') {
        expected = "one grade of A, B, C or D";
      }
    } else if (has("--limit")) {
      flags.q_limit = static_cast<std::size_t>(count());
    } else if (arg == "--full") {
      flags.q_full = true;
    } else {
      std::fprintf(stderr, "error: unknown flag %s (run without arguments "
                   "for usage)\n", arg.c_str());
      return false;
    }
    if (!expected.empty()) {
      std::fprintf(stderr, "error: %s: expected %s\n", arg.c_str(),
                   expected.c_str());
      return false;
    }
    --argc;
    ++argv;
    argv[0] = argv[-1];  // Keep argv[0] pointing at a program name.
  }
  return true;
}

/// Batch-mode clock-skew handling (--skew-correct): feed the population
/// to the estimator, rewrite every timestamp into the solved global clock
/// frame, and (--per-edge-slack) derive per-(caller, callee) feasibility
/// slack from the observed spread. tw_skew_* gauges land in `registry`
/// when non-null; a one-line note on stderr reports what moved.
void ApplySkewCorrection(const CliFlags& flags, std::vector<Span>& spans,
                         TraceWeaverOptions& opts,
                         obs::MetricsRegistry* registry) {
  if (!flags.skew_correct) return;
  SkewEstimator estimator;
  for (const Span& s : spans) estimator.ObserveSpan(s);
  const std::size_t corrected = estimator.CorrectSpans(spans);
  if (flags.per_edge_slack) {
    opts.optimizer.params.edge_slack_ns = estimator.EdgeSlacks();
  }
  if (registry != nullptr) estimator.FlushMetrics(*registry);
  if (corrected > 0) {
    std::fprintf(stderr,
                 "note: skew correction moved %zu of %zu spans (max frame "
                 "offset %lld ns, %zu vantage pairs, %zu per-edge slacks)\n",
                 corrected, spans.size(),
                 static_cast<long long>(estimator.MaxFrameOffsetNs()),
                 estimator.pairs().size(),
                 flags.per_edge_slack ? estimator.EdgeSlacks().size()
                                      : std::size_t{0});
  }
}

TraceWeaverOptions WeaverOptions(const CliFlags& flags,
                                 obs::MetricsRegistry* registry,
                                 long long slack_ns = 0) {
  TraceWeaverOptions opts;
  opts.num_threads = flags.threads;
  if (flags.WantMetrics()) opts.metrics = registry;
  if (flags.auto_slack && slack_ns > 0) {
    opts.optimizer.params.constraint_slack_ns = slack_ns;
  }
  opts.optimizer.params.sampling_rate = flags.sampling_rate;
  opts.optimizer.params.duplicate_twin_window_ns = flags.twin_window_ns;
  opts.compute_quality = flags.quality;
  return opts;
}

/// One-line stderr warning when the mean assignment confidence of the run
/// falls below --min-confidence, naming the three weakest services
/// (mirrors the --auto-slack advisory UX).
void WarnLowConfidence(const CliFlags& flags, const TraceWeaverOutput& out) {
  if (flags.min_confidence < 0.0) return;
  const double mean = out.quality.MeanAssignmentConfidence();
  if (mean >= flags.min_confidence) return;
  std::string worst;
  for (const auto& [service, conf] : out.quality.WorstServices(3)) {
    if (!worst.empty()) worst += ", ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %.2f", service.c_str(), conf);
    worst += buf;
  }
  std::fprintf(stderr,
               "warning: mean assignment confidence %.2f below "
               "--min-confidence=%.2f; worst services: %s\n",
               mean, flags.min_confidence,
               worst.empty() ? "(none)" : worst.c_str());
}

/// tw.* Jaeger span tags from a quality report (export-jaeger --quality).
std::map<SpanId, JaegerSpanTags> QualityTags(const TraceWeaverOutput& out) {
  std::map<SpanId, JaegerSpanTags> tags;
  for (const obs::AssignmentQuality& a : out.quality.assignments) {
    JaegerSpanTags t;
    t.confidence = a.confidence;
    t.runner_up_margin = a.margin;
    t.candidates_considered = static_cast<std::int64_t>(a.candidates);
    tags[a.parent] = t;
  }
  return tags;
}

/// Stage-timer profile: one row per pipeline stage, sorted by self-CPU
/// descending, with the share of total stage CPU. The quick first stop
/// when a run is slower than expected -- it points at the stage to dig
/// into before reaching for an external profiler.
void PrintStageProfile(const obs::RegistrySnapshot& snapshot) {
  struct Row {
    std::string stage;
    std::int64_t cpu_ns = 0;
    std::int64_t wall_ns = 0;
  };
  std::vector<Row> rows;
  std::int64_t total_cpu = 0;
  for (const obs::MetricSnapshot* m : snapshot.Family("tw_stage_cpu_ns_total")) {
    // Label body is `stage="name"`; strip down to the name.
    std::string stage = m->labels;
    if (const auto q1 = stage.find('"'); q1 != std::string::npos) {
      const auto q2 = stage.rfind('"');
      stage = stage.substr(q1 + 1, q2 - q1 - 1);
    }
    rows.push_back(
        {stage, m->value,
         snapshot.Value("tw_stage_wall_ns_total", m->labels)});
    total_cpu += m->value;
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.cpu_ns > b.cpu_ns; });
  std::fprintf(stderr, "stage profile (self-CPU, descending):\n");
  std::fprintf(stderr, "  %-10s %12s %12s %7s\n", "stage", "cpu_ms",
               "wall_ms", "cpu%");
  for (const Row& r : rows) {
    std::fprintf(stderr, "  %-10s %12.2f %12.2f %6.1f%%\n", r.stage.c_str(),
                 static_cast<double>(r.cpu_ns) / 1e6,
                 static_cast<double>(r.wall_ns) / 1e6,
                 total_cpu > 0
                     ? 100.0 * static_cast<double>(r.cpu_ns) /
                           static_cast<double>(total_cpu)
                     : 0.0);
  }
  std::fprintf(stderr, "  %-10s %12.2f\n", "total",
               static_cast<double>(total_cpu) / 1e6);
}

/// Emits whatever observability outputs the flags requested.
void EmitObservability(const CliFlags& flags,
                       const obs::MetricsRegistry& registry) {
  if (!flags.WantMetrics()) return;
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  if (flags.report) {
    const obs::RunReport report = obs::BuildRunReport(snapshot);
    std::fputs(obs::RunReportTable(report).c_str(), stderr);
  }
  if (flags.profile_stages) PrintStageProfile(snapshot);
  if (!flags.report_json.empty()) {
    std::ofstream out(flags.report_json);
    if (!out) {
      std::fprintf(stderr, "cannot write report: %s\n",
                   flags.report_json.c_str());
    } else {
      out << obs::RunReportJson(obs::BuildRunReport(snapshot));
    }
  }
  if (!flags.metrics_out.empty()) {
    std::ofstream out(flags.metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot write metrics: %s\n",
                   flags.metrics_out.c_str());
    } else {
      obs::WritePrometheusText(out, snapshot);
    }
  }
}

std::optional<sim::AppSpec> AppByName(const std::string& name) {
  if (name == "hotel") return sim::MakeHotelReservationApp();
  if (name == "media") return sim::MakeMediaMicroservicesApp();
  if (name == "nodejs") return sim::MakeNodejsApp();
  if (name == "chain") return sim::MakeLinearChainApp();
  if (name == "ab") return sim::MakeAbTestApp(0.05);
  return std::nullopt;
}

/// Prints the validator's findings to stderr (the CLI surface of the
/// ingestion layer); silent when the input was clean.
void WarnIngest(const IngestStats& ingest) {
  if (ingest.parse_errors > 0) {
    std::fprintf(stderr,
                 "warning: %llu malformed span lines dropped at parse\n",
                 static_cast<unsigned long long>(ingest.parse_errors));
  }
  if (ingest.repaired > 0 || ingest.quarantined > 0) {
    std::fprintf(stderr,
                 "warning: ingest sanitized %llu and quarantined %llu of "
                 "%llu spans (%llu timestamp clamps, %llu duplicate ids, "
                 "%llu empty names)\n",
                 static_cast<unsigned long long>(ingest.repaired),
                 static_cast<unsigned long long>(ingest.quarantined),
                 static_cast<unsigned long long>(ingest.input),
                 static_cast<unsigned long long>(ingest.timestamps_clamped),
                 static_cast<unsigned long long>(ingest.duplicate_ids),
                 static_cast<unsigned long long>(ingest.empty_names));
  }
  if (ingest.suggested_slack_ns > 0) {
    std::fprintf(stderr,
                 "note: observed capture-clock skew up to %lld ns; "
                 "suggested constraint_slack_ns=%lld (--auto-slack "
                 "applies it)\n",
                 static_cast<long long>(ingest.max_skew_ns),
                 static_cast<long long>(ingest.suggested_slack_ns));
    if (!ingest.skew_pairs.empty()) {
      // Name the worst service pair instead of blaming the deployment:
      // skew is per vantage pair, and usually one pair dominates.
      const IngestStats::PairSkew& worst = ingest.skew_pairs.front();
      std::fprintf(stderr,
                   "note: worst skew pair %s -> %s (%llu samples, "
                   "p99 %lld ns, max %lld ns) of %zu pair(s)\n",
                   worst.caller.c_str(), worst.callee.c_str(),
                   static_cast<unsigned long long>(worst.samples),
                   static_cast<long long>(worst.p99_skew_ns),
                   static_cast<long long>(worst.max_skew_ns),
                   ingest.skew_pairs.size());
    }
  }
}

struct LoadedSpans {
  std::vector<Span> spans;
  IngestStats ingest;
};

/// Reads a span population and runs it through the ingestion validator
/// (the JSONL ingest path). Parse drops and sanitization are surfaced on
/// stderr; `tw_ingest_*` metrics land in `registry` when non-null.
std::optional<LoadedSpans> LoadSpans(const std::string& path,
                                     const CliFlags& flags,
                                     obs::MetricsRegistry* registry) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open spans file: %s\n", path.c_str());
    return std::nullopt;
  }
  std::size_t dropped = 0;
  auto spans = ReadSpansJsonl(in, &dropped);

  SpanValidatorOptions vopts;
  vopts.mode = flags.ingest;
  vopts.metrics = registry;
  SpanValidator validator(vopts);
  validator.RecordParseErrors(dropped);
  LoadedSpans loaded;
  loaded.spans = validator.Sanitize(std::move(spans));
  loaded.ingest = validator.Finish();
  WarnIngest(loaded.ingest);
  return loaded;
}

std::optional<CallGraph> LoadGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open call-graph file: %s\n", path.c_str());
    return std::nullopt;
  }
  std::size_t dropped = 0;
  CallGraph graph = ReadCallGraph(in, &dropped);
  if (dropped > 0) {
    std::fprintf(stderr, "warning: %zu malformed graph lines skipped\n",
                 dropped);
  }
  return graph;
}

int CmdSimulate(const CliFlags& flags, int argc, char** argv) {
  auto app = AppByName(argv[1]);
  if (!app) return Usage();
  sim::OpenLoopOptions load;
  load.requests_per_sec = std::atof(argv[2]);
  load.duration = Seconds(std::atof(argv[3]));
  load.seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 31;
  if (load.requests_per_sec <= 0 || load.duration <= 0) return Usage();

  // Simulator-output ingest path: the validator rides along with span
  // assembly (a no-op on a healthy capture, reported on stderr otherwise).
  SpanValidatorOptions vopts;
  vopts.mode = flags.ingest;
  SpanValidator validator(vopts);
  auto spans = collector::CaptureRoundTrip(sim::RunOpenLoop(*app, load).spans,
                                           {}, nullptr, &validator);
  WarnIngest(validator.Finish());

  if (flags.faults.Active()) {
    sim::FaultStats fstats;
    spans = sim::InjectFaults(std::move(spans), flags.faults, &fstats);
    std::fprintf(stderr,
                 "faults: %zu in -> %zu out (%zu dropped, %zu duplicated, "
                 "%zu garbled, %zu vantage clocks)\n",
                 fstats.input, fstats.output, fstats.dropped,
                 fstats.duplicated, fstats.garbled, fstats.vantage_points);
  }
  WriteSpansJsonl(std::cout, spans, /*include_ground_truth=*/true);
  std::fprintf(stderr, "%zu spans\n", spans.size());
  return 0;
}

int CmdInjectFaults(const CliFlags& flags, int, char** argv) {
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open spans file: %s\n", argv[1]);
    return 1;
  }
  // Deliberately no validation here: the point is to produce a corrupted
  // stream for downstream robustness runs.
  std::size_t dropped = 0;
  auto spans = ReadSpansJsonl(in, &dropped);
  if (dropped > 0) {
    std::fprintf(stderr, "warning: %zu malformed span lines dropped\n",
                 dropped);
  }
  sim::FaultStats fstats;
  spans = sim::InjectFaults(std::move(spans), flags.faults, &fstats);
  WriteSpansJsonl(std::cout, spans, /*include_ground_truth=*/true);
  std::fprintf(stderr,
               "faults: %zu in -> %zu out (%zu dropped, %zu duplicated, "
               "%zu skewed, %zu truncated, %zu garbled, %zu head-sampled, "
               "%zu span-sampled)\n",
               fstats.input, fstats.output, fstats.dropped,
               fstats.duplicated, fstats.skewed, fstats.truncated,
               fstats.garbled, fstats.head_sampled_out,
               fstats.tail_sampled_out);
  return 0;
}

int CmdReplay(const CliFlags& flags, int argc, char** argv) {
  auto app = AppByName(argv[1]);
  if (!app) return Usage();
  sim::IsolatedReplayOptions options;
  if (argc > 2) {
    options.requests_per_root =
        static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10));
  }
  SpanValidatorOptions vopts;
  vopts.mode = flags.ingest;
  SpanValidator validator(vopts);
  const auto spans =
      collector::CaptureRoundTrip(sim::RunIsolatedReplay(*app, options).spans,
                                  {}, nullptr, &validator);
  WarnIngest(validator.Finish());
  WriteSpansJsonl(std::cout, spans, /*include_ground_truth=*/true);
  std::fprintf(stderr, "%zu spans\n", spans.size());
  return 0;
}

int CmdInferGraph(const CliFlags& flags, int, char** argv) {
  auto loaded = LoadSpans(argv[1], flags, nullptr);
  if (!loaded) return 1;
  const CallGraph graph = InferCallGraph(loaded->spans);
  WriteCallGraph(std::cout, graph);
  return 0;
}

/// One {"span","parent"} JSONL row.
void PrintAssignmentRow(SpanId child, SpanId parent) {
  std::printf("{\"span\":%llu,\"parent\":%llu}\n",
              static_cast<unsigned long long>(child),
              static_cast<unsigned long long>(parent));
}

/// `assignment` as {"span","parent"} rows sorted by child id.
void PrintAssignment(const ParentAssignment& assignment) {
  std::vector<std::pair<SpanId, SpanId>> rows(assignment.begin(),
                                              assignment.end());
  std::sort(rows.begin(), rows.end());
  for (const auto& [child, parent] : rows) PrintAssignmentRow(child, parent);
}

struct Reconstruction {
  std::vector<Span> spans;  ///< Validated and skew-corrected input.
  TraceWeaverOutput out;
};

/// The shared body of the reconstruction commands: loads the graph and
/// span files (argv[1], argv[2]), corrects skew, reconstructs, then emits
/// the requested observability outputs and the low-confidence warning.
/// A non-null `explain` captures the candidate table of `explain_parent`.
std::optional<Reconstruction> ReconstructFiles(
    const CliFlags& flags, char** argv, ExplainCapture* explain = nullptr,
    SpanId explain_parent = kInvalidSpanId) {
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* reg = flags.WantMetrics() ? &registry : nullptr;
  auto graph = LoadGraph(argv[1]);
  auto loaded = LoadSpans(argv[2], flags, reg);
  if (!graph || !loaded) return std::nullopt;
  Reconstruction run{std::move(loaded->spans), {}};
  TraceWeaverOptions opts =
      WeaverOptions(flags, &registry, loaded->ingest.suggested_slack_ns);
  ApplySkewCorrection(flags, run.spans, opts, reg);
  opts.optimizer.explain_parent = explain_parent;
  opts.optimizer.explain_out = explain;
  run.out = TraceWeaver(*graph, opts).Reconstruct(run.spans);
  EmitObservability(flags, registry);
  WarnLowConfidence(flags, run.out);
  return run;
}

int CmdReconstruct(const CliFlags& flags, int, char** argv) {
  const auto run = ReconstructFiles(flags, argv);
  if (!run) return 1;
  const std::vector<Span>& spans = run->spans;
  const TraceWeaverOutput& out = run->out;
  std::size_t mapped = 0;
  for (const Span& s : spans) {
    auto it = out.assignment.find(s.id);
    const SpanId parent =
        it == out.assignment.end() ? kInvalidSpanId : it->second;
    PrintAssignmentRow(s.id, parent);
    if (parent != kInvalidSpanId) ++mapped;
  }
  std::fprintf(stderr, "%zu of %zu spans mapped to a parent\n", mapped,
               spans.size());
  return 0;
}

int CmdExportJaeger(const CliFlags& flags, int, char** argv) {
  const auto run = ReconstructFiles(flags, argv);
  if (!run) return 1;
  const std::vector<Span>& spans = run->spans;
  const TraceWeaverOutput& out = run->out;
  if (flags.quality) {
    const auto tags = QualityTags(out);
    std::cout << TracesToJaegerJson(spans, out.assignment, &tags)
              << '\n';
  } else {
    std::cout << TracesToJaegerJson(spans, out.assignment) << '\n';
  }
  return 0;
}

int CmdEvaluate(const CliFlags& flags, int, char** argv) {
  const auto run = ReconstructFiles(flags, argv);
  if (!run) return 1;
  const std::vector<Span>& spans = run->spans;
  const TraceWeaverOutput& out = run->out;
  const AccuracyReport report = Evaluate(spans, out.assignment);
  std::printf("spans:   %zu considered, %zu correct (%.2f%%)\n",
              report.spans_considered, report.spans_correct,
              report.SpanAccuracy() * 100.0);
  std::printf("traces:  %zu considered, %zu fully correct (%.2f%%)\n",
              report.traces_considered, report.traces_correct,
              report.TraceAccuracy() * 100.0);
  std::printf("top-5 end-to-end: %.2f%%\n",
              TopKTraceAccuracy(spans, out, 5) * 100.0);
  std::printf("per-service confidence:\n");
  for (const auto& [service, confidence] : out.ConfidenceByService()) {
    std::printf("  %-24s %.1f%%\n", service.c_str(), confidence * 100.0);
  }
  if (flags.quality) {
    const obs::CalibrationResult acal =
        obs::CalibrateAssignments(spans, out.containers, out.quality);
    const auto pearson_str = [](const obs::CalibrationResult& c) {
      if (!c.pearson_defined) return std::string("n/a");
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", c.pearson);
      return std::string(buf);
    };
    std::printf(
        "calibration (assignment confidence vs correctness, %zu "
        "assignments):\n  pearson %s   ece %.4f   brier %.4f\n",
        acal.samples, pearson_str(acal).c_str(), acal.ece, acal.brier);
    std::fputs(acal.ReliabilityDiagram().c_str(), stdout);
    const obs::CalibrationResult calib =
        obs::CalibrateTraces(spans, out.quality, out.assignment);
    std::printf(
        "calibration (trace confidence vs correctness, %zu traces):\n"
        "  pearson %s   ece %.4f   brier %.4f\n",
        calib.samples, pearson_str(calib).c_str(), calib.ece, calib.brier);
    std::fputs(calib.ReliabilityDiagram().c_str(), stdout);
  }
  return 0;
}

int CmdExplain(const CliFlags& flags, int, char** argv) {
  ExplainCapture capture;
  if (!ReconstructFiles(flags, argv, &capture,
                        std::strtoull(argv[3], nullptr, 10))) {
    return 1;
  }
  if (flags.json) {
    std::fputs(ExplainJson(capture).c_str(), stdout);
  } else {
    std::fputs(ExplainTable(capture).c_str(), stdout);
  }
  return capture.found ? 0 : 1;
}

/// Reorders a span file into completion (client_recv) order -- the
/// arrival order a live collector produces and the one `serve` expects.
int CmdSortSpans(const CliFlags&, int, char** argv) {
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open spans file: %s\n", argv[1]);
    return 1;
  }
  std::size_t dropped = 0;
  auto spans = ReadSpansJsonl(in, &dropped);
  if (dropped > 0) {
    std::fprintf(stderr, "warning: %zu malformed span lines dropped\n",
                 dropped);
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.client_recv != b.client_recv ? a.client_recv < b.client_recv
                                          : a.id < b.id;
  });
  WriteSpansJsonl(std::cout, spans, /*include_ground_truth=*/true);
  return 0;
}

// ---------------------------------------------------------------------
// serve: the front end of the streaming pipeline (serve/pipeline.h) --
// source reading, HTTP, signals and output.

/// Opens `path` (seeking to `offset`) with exponential-backoff retry; an
/// unopened stream after `retries` attempts signals giving up.
std::ifstream OpenWithRetry(const std::string& path, int retries,
                            std::uint64_t offset) {
  for (int attempt = 0;; ++attempt) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      if (offset > 0) in.seekg(static_cast<std::streamoff>(offset));
      if (in) return in;
    }
    if (attempt >= retries) return std::ifstream();
    const long long backoff_ms =
        std::min(100LL << std::min(attempt, 6), 5000LL);
    std::fprintf(stderr,
                 "serve: cannot read %s (attempt %d/%d), retrying in "
                 "%lld ms\n",
                 path.c_str(), attempt + 1, retries, backoff_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
}

/// SIGINT/SIGTERM latch for the serve loop: first signal requests a
/// graceful checkpoint-and-exit (and ends --linger).
std::atomic<bool> g_stop{false};
void HandleStopSignal(int) { g_stop.store(true); }

void EmitWindowResults(const std::vector<WindowResult>& results) {
  for (const WindowResult& r : results) {
    std::printf(
        "{\"window_start\":%lld,\"window_end\":%lld,\"committed\":%zu,"
        "\"shed\":%s,\"level\":%d,\"grafted\":%zu,\"orphans\":%zu}\n",
        static_cast<long long>(r.window_start),
        static_cast<long long>(r.window_end), r.parents_committed,
        r.shed ? "true" : "false", r.degradation_level, r.late_grafted,
        r.orphans.size());
    PrintAssignment(r.assignment);
    for (SpanId id : r.orphans) PrintAssignmentRow(id, kInvalidSpanId);
  }
}

/// Prints the checkpoint / seal failures the pipeline carried on past.
void PrintPipelineWarnings(serve::Pipeline& pipeline) {
  for (const std::string& warning : pipeline.TakeWarnings()) {
    std::fprintf(stderr, "serve: %s\n", warning.c_str());
  }
}

int CmdServe(const CliFlags& flags, int, char** argv) {
  serve::PipelineOptions popts = flags.serve;
  const bool store_enabled = !popts.store_dir.empty();
  const bool http_enabled = flags.http_port >= 0;
  for (const auto& [used, flag] :
       {std::pair{http_enabled, "--http-port"},
        {popts.self_trace, "--self-trace"},
        {popts.tail_sampler.has_value(), "--tail-sample"}}) {
    if (used && !store_enabled) {
      std::fprintf(stderr, "serve: %s requires --store-dir\n", flag);
      return 2;
    }
  }
  auto graph = LoadGraph(argv[1]);
  if (!graph) return 1;
  const std::string source = argv[2];

  obs::MetricsRegistry registry;
  // The store/HTTP layers always record into the registry (the /metrics
  // endpoint scrapes it); file/report outputs still need the flags.
  obs::MetricsRegistry* reg =
      flags.WantMetrics() || store_enabled ? &registry : nullptr;
  popts.online.weaver = WeaverOptions(flags, &registry);
  popts.online.weaver.metrics = reg;
  // serve's --skew-correct runs the streaming estimator: every ingested
  // span is observed raw, corrected into the global frame, and the
  // per-edge slack map refreshes at each window close.
  popts.online.skew_correct = flags.skew_correct;
  popts.online.metrics = reg;
  serve::Pipeline pipeline(*graph, popts);

  std::string err;
  const auto ostats = pipeline.Open(&err);
  if (!ostats) {
    std::fprintf(stderr, "serve: cannot open store %s: %s\n",
                 popts.store_dir.c_str(), err.c_str());
    return 1;
  }
  if (store_enabled) {
    if (ostats->segments_rejected > 0) {
      std::fprintf(stderr, "serve: store skipped %zu damaged segment(s)\n",
                   ostats->segments_rejected);
    }
    std::fprintf(stderr, "serve: store %s: %zu traces in %zu segments\n",
                 popts.store_dir.c_str(), ostats->traces_loaded,
                 ostats->segments_loaded);
  }

  std::uint64_t offset = 0;
  if (flags.resume && !popts.checkpoint_dir.empty()) {
    if (pipeline.Resume(&offset, &err)) {
      std::fprintf(stderr,
                   "serve: resumed from %s at source offset %llu "
                   "(%zu pending committer spans)\n",
                   popts.checkpoint_dir.c_str(),
                   static_cast<unsigned long long>(offset),
                   pipeline.committer() != nullptr
                       ? pipeline.committer()->pending_spans()
                       : 0);
    } else {
      std::fprintf(stderr, "serve: %s, starting fresh\n", err.c_str());
    }
  }

  std::unique_ptr<serve::QueryService> query_service;
  std::unique_ptr<serve::HttpServer> http;
  if (http_enabled) {
    serve::QueryServiceOptions qopts;
    qopts.explain_weaver = pipeline.options().online.weaver;
    query_service = std::make_unique<serve::QueryService>(
        pipeline.store(), &*graph, &registry, qopts);
    serve::HttpServerOptions hopts;
    hopts.port = flags.http_port;
    hopts.worker_threads = flags.http_threads;
    hopts.metrics = &registry;
    http = std::make_unique<serve::HttpServer>(
        [&query_service](const serve::HttpRequest& rq,
                         serve::HttpResponse& rs) {
          query_service->Handle(rq, rs);
        },
        hopts);
    if (!http->Start(&err)) {
      std::fprintf(stderr, "serve: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "serve: http query api on http://%s:%d/\n",
                 hopts.bind_address.c_str(), http->port());
  }

  g_stop.store(false);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  std::ifstream in = OpenWithRetry(source, flags.retries, offset);
  if (!in) {
    std::fprintf(stderr, "serve: giving up on %s\n", source.c_str());
    if (http != nullptr) http->Stop();
    return 1;
  }

  std::string line;
  std::uint64_t parse_errors = 0;
  const std::uint64_t loop_start = obs::WallNowNs();
  while (!g_stop.load()) {
    std::optional<Span> span;
    {
      auto t = pipeline.Time(obs::Stage::kRead);
      if (!std::getline(in, line)) {
        if (in.eof()) break;
        // Transient read failure: reopen at the last consumed offset.
        in = OpenWithRetry(source, flags.retries, offset);
        if (!in) break;
        continue;
      }
      const std::streamoff pos = in.tellg();
      if (pos >= 0) {
        offset = static_cast<std::uint64_t>(pos);
      } else {
        offset += line.size() + 1;
      }
      if (line.empty()) continue;
      span = SpanFromJson(line);
    }
    if (!span) {
      ++parse_errors;
      continue;
    }
    const auto& results = pipeline.Ingest(*span, offset);
    PrintPipelineWarnings(pipeline);
    if (!flags.final_only) EmitWindowResults(results);
  }

  const bool interrupted = g_stop.load();
  if (interrupted) {
    std::fprintf(stderr, "serve: interrupted, checkpointing and exiting\n");
    pipeline.Interrupt(offset);
    PrintPipelineWarnings(pipeline);
  } else {
    const auto tail = pipeline.Finish(offset);
    PrintPipelineWarnings(pipeline);
    if (!flags.final_only) {
      EmitWindowResults(tail);
    } else {
      PrintAssignment(pipeline.weaver().assignment());
    }
  }
  // The run report's stage-coverage denominator on serve runs.
  registry
      .GetCounter("tw_online_loop_wall_ns_total", "",
                  "Serve loop wall time, first read to end of run", "ns")
      .Inc(obs::WallNowNs() - loop_start);
  EmitObservability(flags, registry);

  const OnlineTraceWeaver::Stats& st = pipeline.weaver().stats();
  std::fprintf(
      stderr,
      "serve: %llu ingested (%llu parse errors), %llu windows closed, "
      "%llu parents committed; shed %llu windows / %llu spans, %llu "
      "admission drops; late %llu (%llu grafted, %llu orphaned, %llu "
      "dropped); %llu watermark regressions, %llu deadline misses, "
      "ladder %llu up / %llu down (level %d)\n",
      static_cast<unsigned long long>(st.ingested),
      static_cast<unsigned long long>(parse_errors),
      static_cast<unsigned long long>(st.windows_closed),
      static_cast<unsigned long long>(st.parents_committed),
      static_cast<unsigned long long>(st.windows_shed),
      static_cast<unsigned long long>(st.spans_shed),
      static_cast<unsigned long long>(st.admission_drops),
      static_cast<unsigned long long>(st.late_spans),
      static_cast<unsigned long long>(st.late_grafted),
      static_cast<unsigned long long>(st.late_orphans),
      static_cast<unsigned long long>(st.late_dropped),
      static_cast<unsigned long long>(st.watermark_regressions),
      static_cast<unsigned long long>(st.deadline_misses),
      static_cast<unsigned long long>(st.degrade_up_steps),
      static_cast<unsigned long long>(st.degrade_down_steps),
      pipeline.weaver().degradation_level());
  if (const store::TraceStore* tstore = pipeline.store()) {
    std::fprintf(
        stderr,
        "serve: store holds %zu traces (%zu sealed segments, %zu active"
        "%s)\n",
        tstore->size(), tstore->sealed_segments(), tstore->active_traces(),
        pipeline.committer()->pending_spans() > 0
            ? ", settling spans pending"
            : "");
  }
  if (const store::TailSampler* sampler = pipeline.sampler()) {
    std::fprintf(stderr,
                 "serve: tail sampler considered %zu traces: kept %zu "
                 "(%zu interesting, %zu by coin), shed %zu\n",
                 sampler->considered(), sampler->kept(),
                 sampler->kept_interesting(), sampler->kept_random(),
                 sampler->shed());
  }
  if (const obs::ProvenanceLedger* ledger = pipeline.ledger()) {
    std::fprintf(stderr,
                 "serve: provenance ledger recorded %llu events (%llu "
                 "dropped, %zu spans still pending)\n",
                 static_cast<unsigned long long>(ledger->recorded()),
                 static_cast<unsigned long long>(ledger->dropped()),
                 ledger->pending_spans());
  }
  if (const serve::SelfTracer* self_tracer = pipeline.self_tracer()) {
    std::fprintf(stderr, "serve: committed %zu pipeline self traces\n",
                 self_tracer->committed());
  }

  if (http != nullptr && flags.linger && !interrupted) {
    std::fprintf(
        stderr,
        "serve: source drained; serving queries until SIGINT/SIGTERM\n");
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (http != nullptr) http->Stop();
  return 0;
}

/// query: offline access to a trace store (no server). Summaries by
/// default, one full record with an explicit id, --full to stream records.
int CmdQuery(const CliFlags& flags, int argc, char** argv) {
  store::TraceStore tstore(argv[1], flags.serve.store);
  std::string err;
  const auto ostats = tstore.Open(&err);
  if (!ostats) {
    std::fprintf(stderr, "query: cannot open store %s: %s\n", argv[1],
                 err.c_str());
    return 1;
  }
  if (ostats->segments_rejected > 0) {
    std::fprintf(stderr, "query: skipped %zu damaged segment(s)\n",
                 ostats->segments_rejected);
  }

  if (argc > 2) {
    const SpanId id = std::strtoull(argv[2], nullptr, 10);
    const auto record = tstore.Get(id);
    if (record == nullptr) {
      std::fprintf(stderr, "query: trace %s not found\n", argv[2]);
      return 1;
    }
    std::printf("%s\n", TraceRecordToJson(*record).c_str());
    return 0;
  }

  store::TraceQuery query;
  query.service = flags.q_service;
  query.from = static_cast<TimeNs>(flags.q_from);
  query.to = static_cast<TimeNs>(flags.q_to);
  query.max_grade = flags.q_grade;
  query.min_confidence = std::max(0.0, flags.min_confidence);
  query.limit = flags.q_limit;

  std::size_t matched = 0;
  if (flags.q_full) {
    matched = tstore.Query(
        query, [](const store::TraceSummary&,
                  const std::shared_ptr<const TraceRecord>& record) {
          if (record != nullptr) {
            std::printf("%s\n", TraceRecordToJson(*record).c_str());
          }
          return true;
        });
  } else {
    for (const store::TraceSummary& s : tstore.QuerySummaries(query)) {
      std::printf("%s\n", serve::TraceSummaryJson(s).c_str());
      ++matched;
    }
  }
  std::fprintf(stderr, "%zu of %zu stored traces matched\n", matched,
               tstore.size());
  return 0;
}

/// provenance: print one stored trace's decision ledger as the same
/// `traceweaver.provenance.v1` document GET /traces/{id}/provenance
/// serves (docs/API.md).
int CmdProvenance(const CliFlags& flags, int, char** argv) {
  store::TraceStore tstore(argv[1], flags.serve.store);
  std::string err;
  const auto ostats = tstore.Open(&err);
  if (!ostats) {
    std::fprintf(stderr, "provenance: cannot open store %s: %s\n", argv[1],
                 err.c_str());
    return 1;
  }
  const SpanId id = std::strtoull(argv[2], nullptr, 10);
  const auto record = tstore.Get(id);
  if (record == nullptr) {
    std::fprintf(stderr, "provenance: trace %s not found\n", argv[2]);
    return 1;
  }
  std::printf("%s\n", serve::ProvenanceJson(*record).c_str());
  return 0;
}

/// A subcommand: its name, the argument count it needs after its flags
/// (argv[0] is the command name), and its body.
struct Command {
  const char* name;
  int min_argc;
  int (*run)(const CliFlags& flags, int argc, char** argv);
};

}  // namespace

int main(int argc, char** argv) {
  static constexpr Command kCommands[] = {
    {"simulate", 4, CmdSimulate},
    {"inject-faults", 2, CmdInjectFaults},
    {"replay", 2, CmdReplay},
    {"infer-graph", 2, CmdInferGraph},
    {"reconstruct", 3, CmdReconstruct},
    {"evaluate", 3, CmdEvaluate},
    {"export-jaeger", 3, CmdExportJaeger},
    {"explain", 4, CmdExplain},
    {"serve", 3, CmdServe},
    {"query", 2, CmdQuery},
    {"provenance", 3, CmdProvenance},
    {"sort-spans", 2, CmdSortSpans},
  };
  if (argc < 2) return Usage();
  for (const Command& command : kCommands) {
    if (std::strcmp(argv[1], command.name) != 0) continue;
    --argc;
    ++argv;
    CliFlags flags;
    if (!ParseFlags(argc, argv, flags)) return 2;
    if (argc < command.min_argc) return Usage();
    return command.run(flags, argc, argv);
  }
  return Usage();
}

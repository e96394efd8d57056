// Streaming overload benchmark (DESIGN.md §4f acceptance scenario): a 5x
// traffic burst through the online weaver under three resilience
// settings. "unpressured" is the reference (unbounded buffer, no
// deadline); "bounded" caps memory and sets a close deadline so the
// degradation ladder engages; "tight" shrinks the budget until whole
// windows shed. The bounded run must stay within 5 accuracy points of
// the reference while holding its buffer ceiling.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "core/accuracy.h"
#include "core/online.h"
#include "sim/apps.h"
#include "util/table.h"

namespace traceweaver::bench {
namespace {

struct OverloadOutcome {
  double accuracy = 0.0;
  double span_accuracy = 0.0;
  double ns_per_span = 0.0;
  std::size_t peak_buffer_spans = 0;
  std::size_t peak_buffer_bytes = 0;
  int max_level = 0;
  OnlineTraceWeaver::Stats stats;
};

OverloadOutcome RunOnline(const Dataset& data, const OnlineOptions& opts) {
  std::vector<Span> stream = data.spans;
  std::sort(stream.begin(), stream.end(),
            [](const Span& a, const Span& b) {
              return a.client_recv < b.client_recv;
            });

  OverloadOutcome out;
  OnlineTraceWeaver online(data.graph, opts);
  TimeNs watermark = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Span& span : stream) {
    online.Ingest(span);
    watermark = std::max(watermark, span.client_send);
    online.Advance(watermark);
    out.peak_buffer_spans = std::max(out.peak_buffer_spans,
                                     online.buffered());
    out.peak_buffer_bytes = std::max(out.peak_buffer_bytes,
                                     online.buffered_bytes());
    out.max_level = std::max(out.max_level, online.degradation_level());
  }
  online.Flush();
  out.max_level = std::max(out.max_level, online.degradation_level());
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  out.ns_per_span =
      static_cast<double>(wall) / static_cast<double>(stream.size());
  const AccuracyReport report = Evaluate(stream, online.assignment());
  out.accuracy = report.TraceAccuracy();
  out.span_accuracy = report.SpanAccuracy();
  out.stats = online.stats();
  return out;
}

}  // namespace
}  // namespace traceweaver::bench

int main(int argc, char** argv) {
  using namespace traceweaver::bench;
  // --baseline_commit=<sha>: the build this run was compared with, stamped
  // into BENCH_robustness.json.
  const std::string baseline_commit = TakeBaselineCommit(&argc, argv);
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s [--baseline_commit=<sha>]\n", argv[0]);
    return 2;
  }
  using traceweaver::Fmt;
  using traceweaver::Millis;
  using traceweaver::OnlineOptions;
  using traceweaver::TextTable;
  PrintHeader(
      "Online overload: 5x burst vs resilience settings (§5.3 hardened)",
      "Bounded buffer + degradation ladder hold memory and stay within "
      "5 accuracy points of the unpressured run; a tight budget sheds "
      "whole windows and degrades gracefully.");

  // 5x the base 100 rps: the burst the admission controller must survive.
  Dataset data =
      Prepare(traceweaver::sim::MakeHotelReservationApp(), 500, 2.0);
  std::printf("population: %zu spans (5x burst of the base 100 rps)\n\n",
              data.spans.size());

  OnlineOptions unpressured;
  unpressured.window = Millis(500);
  // Well above the app's worst-case response latency, well below the
  // default: more closes land inside the burst instead of at the flush.
  unpressured.margin = Millis(100);

  OnlineOptions bounded = unpressured;
  bounded.max_buffer_spans = 4000;
  bounded.window_close_deadline = Millis(1);

  // Sustained overload past buffer capacity: the controller sheds every
  // window rather than grow. Accuracy collapses by design -- the row
  // demonstrates the memory hard-cap, not graceful degradation (which is
  // the bounded row's job).
  OnlineOptions tight = bounded;
  tight.max_buffer_spans = 1200;

  struct Config {
    std::string name;
    OnlineOptions opts;
  };
  const std::vector<Config> configs = {
      {"burst_unpressured", unpressured},
      {"burst_bounded_ladder", bounded},
      {"burst_overrun_hard_shed", tight},
  };

  TextTable table;
  table.SetHeader({"config", "trace acc", "span acc", "peak buf",
                   "peak KiB", "max level", "shed", "misses", "ns/span"});
  std::vector<BenchRecord> records;
  double reference = 0.0;
  for (const Config& c : configs) {
    const OverloadOutcome out = RunOnline(data, c.opts);
    if (c.name == "burst_unpressured") reference = out.accuracy;
    table.AddRow(
        {c.name, Fmt(100.0 * out.accuracy, 2) + "%",
         Fmt(100.0 * out.span_accuracy, 2) + "%",
         std::to_string(out.peak_buffer_spans),
         std::to_string(out.peak_buffer_bytes / 1024),
         std::to_string(out.max_level),
         std::to_string(out.stats.windows_shed),
         std::to_string(out.stats.deadline_misses),
         Fmt(out.ns_per_span, 0)});

    BenchRecord r;
    r.name = c.name;
    r.spans = data.spans.size();
    r.ns_per_span = out.ns_per_span;
    r.spans_per_sec = out.ns_per_span > 0 ? 1e9 / out.ns_per_span : 0.0;
    r.note = "trace_accuracy=" + Fmt(100.0 * out.accuracy, 2) +
             "% span_accuracy=" + Fmt(100.0 * out.span_accuracy, 2) +
             "% peak_buffer_spans=" + std::to_string(out.peak_buffer_spans) +
             " peak_buffer_bytes=" + std::to_string(out.peak_buffer_bytes) +
             " max_level=" + std::to_string(out.max_level) +
             " windows_shed=" + std::to_string(out.stats.windows_shed) +
             " deadline_misses=" + std::to_string(out.stats.deadline_misses);
    // Whole-window admission shedding bypasses the degradation ladder, so
    // a hard-shed run can report max_level=0 while under the heaviest
    // pressure there is. Mark engaged hard shedding explicitly so the row
    // cannot read as "unpressured" (tests/online_overload_test.cc pins
    // this accounting gap).
    if (out.stats.windows_shed > 0) r.note += " hard_shed=1";
    records.push_back(std::move(r));

    if (c.opts.max_buffer_spans > 0 &&
        out.peak_buffer_spans > c.opts.max_buffer_spans) {
      std::printf("FAIL: %s exceeded its buffer budget (%zu > %zu)\n",
                  c.name.c_str(), out.peak_buffer_spans,
                  c.opts.max_buffer_spans);
      return 1;
    }
    if (c.name == "burst_bounded_ladder") {
      if (out.max_level == 0 && out.stats.degrade_up_steps == 0) {
        std::printf("FAIL: ladder never engaged under the burst\n");
        return 1;
      }
      if (out.accuracy < reference - 0.05) {
        std::printf("FAIL: bounded run lost more than 5 accuracy points "
                    "(%.2f%% vs %.2f%%)\n",
                    100.0 * out.accuracy, 100.0 * reference);
        return 1;
      }
    }
  }
  std::printf("%s", table.Render().c_str());

  // Merged write: bench_robustness owns the fault/topology/sampling rows
  // of BENCH_robustness.json; this binary refreshes only the burst rows.
  const std::string file =
      WriteBenchJsonMerged("robustness", records, baseline_commit);
  std::printf("\nwrote %s\n", file.c_str());
  return 0;
}

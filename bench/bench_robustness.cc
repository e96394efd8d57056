// Robustness benchmark (Fig. 10-style): tracing accuracy vs corruption
// rate. Each row injects one fault family -- drops, duplicates,
// cross-vantage clock skew, timestamp truncation, field garbling -- at
// increasing intensity, sanitizes the stream through the SpanValidator
// (lenient mode, as the CLI default does), and reconstructs. The "mixed"
// section is the acceptance scenario: drops + duplicates + 1ms skew
// together.
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "core/accuracy.h"
#include "sim/apps.h"
#include "sim/fault_injector.h"
#include "trace/span_validator.h"
#include "util/table.h"

namespace traceweaver::bench {
namespace {

struct Row {
  std::string label;
  sim::FaultSpec spec;
};

/// Reconstruction accuracy with explicit optimizer parameters (the
/// hostile-topology and sampling rows tune twin adoption / the known
/// sampling rate; everything else stays at defaults).
double AccuracyWith(const Dataset& data, const std::vector<Span>& spans,
                    long long twin_window_ns, double sampling_rate) {
  TraceWeaverOptions opts;
  opts.optimizer.params.duplicate_twin_window_ns = twin_window_ns;
  opts.optimizer.params.sampling_rate = sampling_rate;
  TraceWeaver weaver(data.graph, opts);
  return Evaluate(spans, weaver.Reconstruct(spans).assignment)
      .TraceAccuracy();
}

void RunFamily(const std::string& title, const Dataset& data,
               const std::vector<Row>& rows,
               std::vector<BenchRecord>& records) {
  TextTable table;
  table.SetHeader({"fault", "accuracy", "spans kept", "repaired",
                   "quarantined", "slack(ns)"});
  for (const Row& row : rows) {
    std::vector<Span> corrupted = sim::InjectFaults(data.spans, row.spec);
    SpanValidator validator;
    std::vector<Span> clean = validator.Sanitize(std::move(corrupted));
    const IngestStats& st = validator.Finish();
    TraceWeaver weaver(data.graph);
    const double accuracy =
        Evaluate(clean, weaver.Reconstruct(clean).assignment).TraceAccuracy();
    table.AddRow({row.label, FmtPct(accuracy), std::to_string(clean.size()),
                  std::to_string(st.repaired), std::to_string(st.quarantined),
                  std::to_string(st.suggested_slack_ns)});
    BenchRecord record;
    record.name = row.label;
    record.spans = clean.size();
    record.note = "accuracy=" + FmtPct(accuracy);
    records.push_back(std::move(record));
  }
  std::printf("--- %s ---\n%s\n", title.c_str(), table.Render().c_str());
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
  using traceweaver::sim::FaultSpec;
  using traceweaver::Fmt;
  using traceweaver::FmtPct;
  using traceweaver::Span;
  using traceweaver::TextTable;
  namespace sim = traceweaver::sim;
  PrintHeader(
      "Robustness: accuracy vs corruption rate (Fig. 10 extension)",
      "Accuracy degrades gracefully with drops; duplicates/skew/garbling "
      "are absorbed by the ingest sanitizer (lenient mode).");

  Dataset data =
      Prepare(traceweaver::sim::MakeHotelReservationApp(), 500, 2.0);
  std::printf("population: %zu spans\n\n", data.spans.size());
  std::vector<BenchRecord> records;

  const std::vector<double> rates = {0.01, 0.05, 0.10, 0.20};

  std::vector<Row> rows;
  for (double r : rates) {
    FaultSpec s;
    s.drop_rate = r;
    rows.push_back({"drop_" + FmtPct(r), s});
  }
  RunFamily("packet drops", data, rows, records);

  rows.clear();
  for (double r : rates) {
    FaultSpec s;
    s.duplicate_rate = r;
    rows.push_back({"dup_" + FmtPct(r), s});
  }
  RunFamily("record duplication", data, rows, records);

  rows.clear();
  for (double us : {10.0, 100.0, 1000.0}) {
    FaultSpec s;
    s.skew_stddev_ns = static_cast<traceweaver::DurationNs>(us * 1000.0);
    rows.push_back({"skew_" + Fmt(us, 0) + "us", s});
  }
  RunFamily("per-vantage clock skew", data, rows, records);

  rows.clear();
  for (double us : {1.0, 10.0, 100.0}) {
    FaultSpec s;
    s.truncate_granularity_ns =
        static_cast<traceweaver::DurationNs>(us * 1000.0);
    rows.push_back({"trunc_" + Fmt(us, 0) + "us", s});
  }
  RunFamily("timestamp truncation", data, rows, records);

  rows.clear();
  for (double r : rates) {
    FaultSpec s;
    s.garble_rate = r;
    rows.push_back({"garble_" + FmtPct(r), s});
  }
  RunFamily("field garbling", data, rows, records);

  rows.clear();
  {
    FaultSpec s;
    s.drop_rate = 0.10;
    s.duplicate_rate = 0.10;
    s.skew_stddev_ns = traceweaver::Millis(1);
    rows.push_back({"mixed_10drop_10dup_1ms_skew", s});
  }
  RunFamily("mixed (acceptance scenario)", data, rows, records);

  // --- Hostile topologies (ISSUE 10): each row is a permanent accuracy
  // gate at >= 70% under nominal load. Hedged requests additionally
  // exercise duplicate-twin adoption.
  {
    struct Topo {
      std::string label;
      traceweaver::sim::AppSpec app;
      double rps;
      long long twin_window_ns;
    };
    const std::vector<Topo> topologies = {
        {"topo_hedged_30pct", traceweaver::sim::MakeHedgedApp(0.3), 60,
         traceweaver::Millis(5)},
        {"topo_fanout_50", traceweaver::sim::MakeFanoutApp(50), 60, 0},
        {"topo_deep_async_10", traceweaver::sim::MakeDeepAsyncChainApp(10),
         120, 0},
        {"topo_cross_thread_handoff",
         traceweaver::sim::MakeCrossThreadHandoffApp(), 150, 0},
    };
    TextTable table;
    table.SetHeader({"topology", "accuracy", "spans", "gate"});
    for (const Topo& t : topologies) {
      const Dataset topo = Prepare(t.app, t.rps, 2.0);
      const double accuracy =
          AccuracyWith(topo, topo.spans, t.twin_window_ns, 1.0);
      table.AddRow({t.label, FmtPct(accuracy),
                    std::to_string(topo.spans.size()), ">=70%"});
      BenchRecord record;
      record.name = t.label;
      record.spans = topo.spans.size();
      record.note = "trace_accuracy=" + FmtPct(accuracy) + " gate=70%";
      records.push_back(std::move(record));
      if (accuracy < 0.70) {
        std::printf("FAIL: %s below the 70%% trace-accuracy gate (%s)\n",
                    t.label.c_str(), FmtPct(accuracy).c_str());
        return 1;
      }
    }
    std::printf("--- hostile topologies ---\n%s\n",
                table.Render().c_str());
  }

  // --- Sampling sweep (ISSUE 10): span-level sampling at keep rates
  // {1.0, 0.5, 0.1}, reconstructed blind (sampling_rate left at 1.0) and
  // aware (the known keep rate threaded into Parameters). Per-trace
  // head sampling rides along as the benign control: survivors are whole
  // traces, so accuracy holds without any awareness.
  {
    TextTable table;
    table.SetHeader({"sampling", "blind", "aware", "spans kept"});
    double blind_half = 0.0;
    double aware_half = 0.0;
    for (const double rate : {1.0, 0.5, 0.1}) {
      std::vector<Span> kept = data.spans;
      if (rate < 1.0) {
        FaultSpec s;
        s.tail_sample_rate = rate;
        kept = sim::InjectFaults(data.spans, s);
      }
      const double blind = AccuracyWith(data, kept, 0, 1.0);
      const double aware =
          rate < 1.0 ? AccuracyWith(data, kept, 0, rate) : blind;
      if (rate == 0.5) {
        blind_half = blind;
        aware_half = aware;
      }
      const std::string pct = Fmt(100.0 * rate, 0);
      table.AddRow({"span_sample_" + pct, FmtPct(blind), FmtPct(aware),
                    std::to_string(kept.size())});
      BenchRecord record;
      record.name = "span_sample_" + pct + "_blind";
      record.spans = kept.size();
      record.note = "trace_accuracy=" + FmtPct(blind);
      records.push_back(std::move(record));
      record = BenchRecord();
      record.name = "span_sample_" + pct + "_aware";
      record.spans = kept.size();
      record.note = "trace_accuracy=" + FmtPct(aware) +
                    " sampling_rate=" + Fmt(rate, 2);
      records.push_back(std::move(record));
    }
    {
      FaultSpec s;
      s.head_sample_rate = 0.5;
      const std::vector<Span> kept = sim::InjectFaults(data.spans, s);
      const double accuracy = AccuracyWith(data, kept, 0, 1.0);
      table.AddRow({"head_sample_50", FmtPct(accuracy), FmtPct(accuracy),
                    std::to_string(kept.size())});
      BenchRecord record;
      record.name = "head_sample_50";
      record.spans = kept.size();
      record.note = "trace_accuracy=" + FmtPct(accuracy) +
                    " coherent_whole_traces";
      records.push_back(std::move(record));
    }
    std::printf("--- sampling sweep ---\n%s\n", table.Render().c_str());
    if (aware_half < blind_half + 0.10) {
      std::printf(
          "FAIL: at 50%% span sampling, aware reconstruction must beat "
          "blind by >= 10 points (blind=%s aware=%s)\n",
          FmtPct(blind_half).c_str(), FmtPct(aware_half).c_str());
      return 1;
    }
  }

  // Merged write: the burst rows of BENCH_robustness.json belong to
  // bench_online_overload; this binary refreshes every other row.
  const std::string file =
      WriteBenchJsonMerged("robustness", records, baseline_commit);
  std::printf("wrote %s\n", file.c_str());
  return 0;
}

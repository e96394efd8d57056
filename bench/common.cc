#include "common.h"

#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "baselines/fcfs.h"
#include "baselines/vpath.h"
#include "baselines/wap5.h"
#include "callgraph/inference.h"
#include "collector/capture.h"
#include "core/accuracy.h"
#include "obs/run_report.h"
#include "sim/workload.h"

namespace traceweaver::bench {

Dataset Prepare(const sim::AppSpec& app, double rps, double seconds,
                std::uint64_t seed) {
  Dataset data;
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 20;
  data.graph = InferCallGraph(
      collector::CaptureRoundTrip(sim::RunIsolatedReplay(app, iso).spans));

  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(seconds);
  load.seed = seed;
  data.spans =
      collector::CaptureRoundTrip(sim::RunOpenLoop(app, load).spans);
  return data;
}

std::vector<std::unique_ptr<Mapper>> AllMappers(
    const CallGraph& graph, obs::MetricsRegistry* metrics) {
  std::vector<std::unique_ptr<Mapper>> mappers;
  TraceWeaverOptions opts;
  opts.metrics = metrics;
  mappers.push_back(std::make_unique<TraceWeaver>(graph, opts));
  mappers.push_back(std::make_unique<Wap5Mapper>());
  mappers.push_back(std::make_unique<VPathMapper>());
  mappers.push_back(std::make_unique<FcfsMapper>());
  return mappers;
}

double TraceAccuracyOf(Mapper& mapper, const Dataset& data) {
  MapperInput input;
  input.spans = &data.spans;
  input.call_graph = &data.graph;
  return Evaluate(data.spans, mapper.Map(input)).TraceAccuracy();
}

void PrintHeader(const std::string& title, const std::string& paper_shape) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("Paper shape: %s\n\n", paper_shape.c_str());
}

namespace {

/// The measuring host, read at write time so a record can never claim a
/// machine it was not taken on: hardware threads and the CPU model.
std::string HostDescription() {
  std::string model = "unknown CPU";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        model = line.substr(colon + 2);
      }
      break;
    }
  }
  return std::to_string(std::thread::hardware_concurrency()) +
         " hardware threads (std::thread::hardware_concurrency()), " + model;
}

void WriteHeader(std::FILE* f, const std::string& tag,
                 const std::string& baseline_commit) {
  const std::string anchor =
      baseline_commit.empty() ? "UNANCHORED" : baseline_commit;
  std::fprintf(f,
               "{\n  \"tag\": \"%s\",\n  \"baseline_commit\": \"%s\",\n"
               "  \"host\": \"%s\",\n  \"records\": [\n",
               tag.c_str(), anchor.c_str(), HostDescription().c_str());
}

}  // namespace

std::string WriteBenchJson(const std::string& tag,
                           const std::vector<BenchRecord>& records,
                           const std::string& baseline_commit) {
  const std::string path = "BENCH_" + tag + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  WriteHeader(f, tag, baseline_commit);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"threads\": %zu, \"spans\": %zu, "
                 "\"ns_per_span\": %.1f, \"spans_per_sec\": %.1f, "
                 "\"note\": \"%s\"}%s\n",
                 r.name.c_str(), r.threads, r.spans, r.ns_per_span,
                 r.spans_per_sec, r.note.c_str(),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return path;
}

std::string TakeBaselineCommit(int* argc, char** argv) {
  const std::string prefix = "--baseline_commit=";
  std::string commit;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      commit = arg.substr(prefix.size());
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  return commit;
}

std::string WriteBenchJsonMerged(const std::string& tag,
                                 const std::vector<BenchRecord>& records,
                                 const std::string& baseline_commit) {
  const std::string path = "BENCH_" + tag + ".json";
  // Record rows are written one per line as `    {"name": "<name>", ...}`
  // by WriteBenchJson -- recover the name of each existing row and keep
  // the raw line when no new record replaces it.
  std::vector<std::pair<std::string, std::string>> preserved;
  {
    std::ifstream in(path);
    std::string line;
    while (in && std::getline(in, line)) {
      const std::string key = "{\"name\": \"";
      const std::size_t at = line.find(key);
      if (at == std::string::npos) continue;
      const std::size_t start = at + key.size();
      const std::size_t end = line.find('"', start);
      if (end == std::string::npos) continue;
      std::string row = line;
      if (!row.empty() && row.back() == ',') row.pop_back();
      preserved.emplace_back(line.substr(start, end - start),
                             std::move(row));
    }
  }
  std::erase_if(preserved, [&](const auto& p) {
    for (const BenchRecord& r : records) {
      if (r.name == p.first) return true;
    }
    return false;
  });

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  WriteHeader(f, tag, baseline_commit);
  for (std::size_t i = 0; i < preserved.size(); ++i) {
    const bool last = i + 1 == preserved.size() && records.empty();
    std::fprintf(f, "%s%s\n", preserved[i].second.c_str(), last ? "" : ",");
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"threads\": %zu, \"spans\": %zu, "
                 "\"ns_per_span\": %.1f, \"spans_per_sec\": %.1f, "
                 "\"note\": \"%s\"}%s\n",
                 r.name.c_str(), r.threads, r.spans, r.ns_per_span,
                 r.spans_per_sec, r.note.c_str(),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return path;
}

std::string WriteRunReportJson(const std::string& tag,
                               const obs::MetricsRegistry& registry) {
  const std::string path = "REPORT_" + tag + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  const std::string json =
      obs::RunReportJson(obs::BuildRunReport(registry.Snapshot()));
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return path;
}

}  // namespace traceweaver::bench

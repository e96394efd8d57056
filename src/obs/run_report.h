// Machine- and human-readable summary of one reconstruction run, built
// from a MetricsRegistry snapshot: what ingestion sanitized or
// quarantined, where the time went per stage, how
// enumeration/batching/ranking/MWIS/GMM behaved, per-service outcomes,
// §4.2 phantom-span usage, the trace-quality family (`tw_quality_*`,
// obs/quality.h), the clock-skew estimator (`tw_skew_*`,
// core/skew_estimator.h), the streaming-resilience family
// (`tw_online_*`, core/online.h), and the decision-provenance ledger
// (`tw_prov_*`, obs/provenance.h). Render as JSON (stable schema
// `traceweaver.run_report.v8`, golden-tested) or as an aligned text
// table for terminals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace traceweaver::obs {

struct RunReport {
  // --- Run level. ---
  std::int64_t runs = 0;
  std::int64_t spans = 0;
  std::int64_t containers = 0;
  std::int64_t threads = 0;
  std::int64_t wall_ns = 0;       ///< Summed Reconstruct() wall time.
  std::int64_t loop_wall_ns = 0;  ///< Serve loop wall time (serve runs).

  // --- Ingestion (span validation layer, `tw_ingest_*`). ---
  struct {
    std::int64_t input = 0;
    std::int64_t accepted = 0;
    std::int64_t repaired = 0;
    std::int64_t quarantined = 0;
    std::int64_t parse_errors = 0;
    std::int64_t timestamps_clamped = 0;
    std::int64_t duplicate_ids = 0;
    std::int64_t suggested_slack_ns = 0;
  } ingest;

  // --- Stage timing (obs::Stage order: reconstruction, then the serve
  // layers; zero-time stages included so rows line up across runs). Times
  // are exclusive: a stage nested in another on the same thread is not
  // counted again in the outer one (v8). ---
  struct StageRow {
    std::string stage;
    std::int64_t wall_ns = 0;
    std::int64_t cpu_ns = 0;
    double share = 0.0;  ///< Fraction of the summed stage wall time.
  };
  std::vector<StageRow> stages;
  std::int64_t stage_wall_sum_ns = 0;
  /// Summed stage wall / the serve loop's wall on serve runs, else the
  /// run wall. ~1 for serial runs; can exceed 1 under parallelism because
  /// concurrent containers accumulate stage wall simultaneously.
  double stage_coverage = 0.0;

  // --- Per-service outcomes. ---
  struct ServiceRow {
    std::string service;
    std::int64_t parents = 0;
    std::int64_t mapped = 0;
    std::int64_t top_choice = 0;
    std::int64_t candidates = 0;
  };
  std::vector<ServiceRow> services;

  // --- Pipeline aggregates. ---
  struct {
    std::int64_t parents = 0, leaves = 0, mapped = 0, top_choice = 0;
    std::int64_t candidates = 0, dfs_nodes = 0;
    std::int64_t branch_limited = 0, total_capped = 0;
    HistogramSnapshot per_parent;
  } enumeration;

  struct {
    std::int64_t batches = 0, imperfect = 0, solve_runs = 0;
    HistogramSnapshot size;
  } batching;

  struct {
    std::int64_t keys_seeded = 0, keys_refit = 0, keys_final = 0;
    std::int64_t mixture_keys = 0, components = 0;
    std::int64_t gmm_fits = 0, em_iterations = 0;
    HistogramSnapshot gmm_components;
  } delay_model;

  struct {
    std::int64_t tasks = 0, tasks_skipped = 0;
    HistogramSnapshot margin_milli;
  } ranking;

  struct {
    std::int64_t solves = 0, vertices = 0, edges = 0;
    std::int64_t bb_nodes = 0, fallbacks = 0;
  } mwis;

  struct {
    std::int64_t iterations = 0, converged = 0;
  } iteration;

  struct {
    std::int64_t containers = 0, skip_budget = 0, skips_chosen = 0;
  } dynamism;

  // --- Trace quality (tw_quality_*, zero when the subsystem is off). ---
  struct {
    std::int64_t assignments = 0, unmapped = 0, traces = 0;
    std::int64_t grade_a = 0, grade_b = 0, grade_c = 0, grade_d = 0;
    std::int64_t monitor_windows = 0, monitor_drift = 0;
    HistogramSnapshot confidence_milli;        ///< Per assignment, x1000.
    HistogramSnapshot entropy_milli;           ///< Per assignment, x1000.
    HistogramSnapshot trace_confidence_milli;  ///< Per trace, x1000.
  } quality;

  // --- Clock-skew estimation (tw_skew_*, zero when no skew evidence was
  // accumulated; v5 addition). ---
  struct {
    std::int64_t pairs = 0;       ///< Vantage pairs with evidence.
    std::int64_t samples = 0;     ///< Cross-vantage gap observations.
    std::int64_t inversions = 0;  ///< Negative cross-vantage gaps seen.
    std::int64_t max_frame_offset_ns = 0;
    std::int64_t max_edge_slack_ns = 0;
  } skew;

  // --- Online / streaming resilience (tw_online_*, zero when the run
  // was batch-only). ---
  struct {
    std::int64_t spans_ingested = 0, windows_closed = 0;
    std::int64_t parents_committed = 0;
    std::int64_t windows_shed = 0, spans_shed = 0, admission_drops = 0;
    std::int64_t buffer_spans = 0, buffer_bytes = 0;
    std::int64_t deadline_misses = 0;
    std::int64_t degrade_up = 0, degrade_down = 0;
    std::int64_t degradation_level = 0;
    std::int64_t late_spans = 0, late_grafted = 0;
    std::int64_t late_orphans = 0, late_dropped = 0;
    std::int64_t watermark_regressions = 0;
    std::int64_t checkpoints = 0, restores = 0;
    HistogramSnapshot window_close_ns;
  } online;

  // --- Decision provenance (tw_prov_*, obs/provenance.h; zero when the
  // ledger is off. v6 addition). ---
  struct ProvRow {
    std::string type;  ///< Event-type wire name ("skew_correct", ...).
    std::int64_t count = 0;
  };
  struct {
    std::int64_t recorded = 0;  ///< Sum over every event type.
    std::int64_t dropped = 0;
    std::int64_t pending_events = 0;
    std::vector<ProvRow> events;  ///< Non-zero event types, name order.
  } provenance;

  // --- Commit-time tail sampler (tw_sample_*, store/tail_sampler.h;
  // zero when the sampler is off. v7 addition). Invariant mirrored by
  // tools/parse_report.py: considered = shed + kept_interesting +
  // kept_random. ---
  struct {
    std::int64_t considered = 0;
    std::int64_t shed = 0, shed_spans = 0;
    std::int64_t kept_interesting = 0;  ///< Always-keep rules 1-4.
    std::int64_t kept_random = 0;       ///< The rule-5 coin.
  } sampler;
};

/// Builds the report from a snapshot of a registry the pipeline recorded
/// into (see PipelineMetrics for the names consumed).
RunReport BuildRunReport(const RegistrySnapshot& snapshot);

/// Stable JSON rendering (schema `traceweaver.run_report.v8`).
std::string RunReportJson(const RunReport& report);

/// Aligned text-table rendering for terminals.
std::string RunReportTable(const RunReport& report);

/// Generic JSON dump of every metric in a snapshot (name, labels, type,
/// value or histogram) -- the machine-readable companion to the
/// Prometheus exposition.
std::string SnapshotJson(const RegistrySnapshot& snapshot);

}  // namespace traceweaver::obs

// Self-instrumentation for the reconstruction pipeline: a sharded,
// allocation-free metrics registry (counters, gauges, histograms with
// fixed log2 buckets) plus snapshotting for reports and exposition.
//
// Design constraints (see DESIGN.md, "Observability model"):
//
//   * The hot path must stay allocation-free and contention-free. Every
//     thread writes to its own shard -- a flat array of relaxed atomics
//     indexed by a dense slot id assigned at registration -- so an
//     increment is one thread-local lookup plus one uncontended
//     fetch_add. Registration (name interning, shard creation) is
//     mutex-guarded and happens only on cold paths.
//
//   * Instrumentation must not perturb reconstruction determinism. All
//     recorded quantities are unsigned integers (counts, nanoseconds,
//     pre-scaled values) and scraping merges shards by integer addition,
//     which is commutative -- so every count-type metric is bit-identical
//     for any thread count, and the reconstruction output itself is
//     untouched (metrics only observe).
//
//   * Handles are cheap POD values. A default-constructed (or
//     null-registry) handle is inert: Inc/Observe on it is a single
//     branch, so instrumented code needs no "is observability on?"
//     conditionals of its own.
//
// Shards are owned by the registry and survive thread exit, so counts
// from finished pool workers are never lost. Snapshots taken while
// writers are active are internally consistent per slot (each slot is an
// atomic) but not across slots; quiescent snapshots are exact.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace traceweaver::obs {

enum class MetricType { kCounter, kGauge, kHistogram };

/// Fixed log2 histogram layout: bucket 0 holds the value 0; bucket b in
/// [1, kHistogramBuckets-2] holds values in [2^(b-1), 2^b - 1]; the last
/// bucket holds everything >= 2^(kHistogramBuckets-2). 48 buckets cover
/// [0, 2^46) exactly -- about 19.5 hours in nanoseconds -- which bounds
/// every quantity the pipeline records.
inline constexpr std::size_t kHistogramBuckets = 48;

constexpr std::size_t HistogramBucket(std::uint64_t v) {
  if (v == 0) return 0;
  const std::size_t b = static_cast<std::size_t>(std::bit_width(v));
  return b < kHistogramBuckets - 1 ? b : kHistogramBuckets - 1;
}

/// Inclusive upper edge of a bucket (UINT64_MAX for the overflow bucket).
constexpr std::uint64_t HistogramBucketUpperBound(std::size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= kHistogramBuckets - 1) return UINT64_MAX;
  return (std::uint64_t{1} << bucket) - 1;
}

class MetricsRegistry;

namespace internal {

/// Slots per shard. Registration fails soft (inert handle) if a registry
/// ever outgrows this; the pipeline uses a few hundred slots.
inline constexpr std::size_t kShardSlots = 4096;

struct Shard {
  std::atomic<std::uint64_t> slots[kShardSlots] = {};
};

}  // namespace internal

/// Monotonically increasing counter handle. Copyable POD; inert when
/// default-constructed.
class Counter {
 public:
  Counter() = default;
  inline void Inc(std::uint64_t n = 1) const;
  explicit operator bool() const { return reg_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Signed last-known-value metric. Merge across shards is by sum, so
/// either use Add/Sub deltas from any thread, or Set from a single thread
/// (the pipeline records run-level summary gauges from the main thread).
class Gauge {
 public:
  Gauge() = default;
  inline void Set(std::int64_t v) const;
  inline void Add(std::int64_t delta) const;
  explicit operator bool() const { return reg_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Fixed log2-bucket histogram of unsigned integer observations. Layout
/// per shard: kHistogramBuckets bucket counts, then total count, then sum
/// (exact integer sum, so merged sums are order-independent).
class Histogram {
 public:
  Histogram() = default;
  inline void Observe(std::uint64_t v) const;
  explicit operator bool() const { return reg_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* reg, std::uint32_t slot)
      : reg_(reg), slot_(slot) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t slot_ = 0;  ///< First bucket slot.
};

struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;  ///< kHistogramBuckets entries.
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper bucket edge containing the q-quantile (q in [0,1]); 0 when
  /// empty. Log-bucket resolution: the true quantile is <= the returned
  /// edge and > half of it.
  std::uint64_t Quantile(double q) const;
};

/// One metric with one label set, merged across all shards.
struct MetricSnapshot {
  std::string name;    ///< Base name, e.g. "tw_batch_size".
  std::string labels;  ///< Prometheus label body, e.g. `stage="rank"`; may
                       ///< be empty.
  MetricType type = MetricType::kCounter;
  std::string help;
  std::string unit;            ///< "ns", "1", ... (documentation only).
  std::int64_t value = 0;      ///< Counters and gauges.
  HistogramSnapshot histogram; ///< Histograms only.
};

/// A consistent, merged view of a registry, sorted by (name, labels).
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  const MetricSnapshot* Find(const std::string& name,
                             const std::string& labels = "") const;
  /// Value of a counter/gauge; 0 when absent.
  std::int64_t Value(const std::string& name,
                     const std::string& labels = "") const;
  /// Sum of a counter family's values across every label set.
  std::int64_t SumAcrossLabels(const std::string& name) const;
  /// All label sets of one base name, in label order.
  std::vector<const MetricSnapshot*> Family(const std::string& name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create a metric. Idempotent on (name, labels): concurrent and
  /// repeated registration returns the same slot, so handle bundles can be
  /// rebuilt freely. `labels` is a raw Prometheus label body such as
  /// `service="frontend"` (no braces), or empty.
  Counter GetCounter(const std::string& name, const std::string& labels,
                     const std::string& help, const std::string& unit);
  Gauge GetGauge(const std::string& name, const std::string& labels,
                 const std::string& help, const std::string& unit);
  Histogram GetHistogram(const std::string& name, const std::string& labels,
                         const std::string& help, const std::string& unit);

  /// Merged view of every registered metric across all shards.
  RegistrySnapshot Snapshot() const;

  /// Zeroes every slot in every shard (descriptors are kept). Callers must
  /// be quiescent; intended for tests and between-run resets.
  void Reset();

  std::size_t num_metrics() const;

  /// Entries in the calling thread's shard cache (one per registry this
  /// thread recorded into that was still alive at its last cache miss).
  static std::size_t ThreadShardCacheSize();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Descriptor {
    std::string name;
    std::string labels;
    MetricType type = MetricType::kCounter;
    std::string help;
    std::string unit;
    std::uint32_t slot = 0;  ///< First slot (histograms span several).
  };

  /// Shared registration path; returns the first slot or UINT32_MAX when
  /// the slot space is exhausted (handle comes back inert).
  std::uint32_t Register(const std::string& name, const std::string& labels,
                         MetricType type, const std::string& help,
                         const std::string& unit, std::uint32_t slots);

  internal::Shard& LocalShard();

  inline void AddToSlot(std::uint32_t slot, std::uint64_t n) {
    LocalShard().slots[slot].fetch_add(n, std::memory_order_relaxed);
  }
  inline void SetSlot(std::uint32_t slot, std::uint64_t v) {
    LocalShard().slots[slot].store(v, std::memory_order_relaxed);
  }
  /// One histogram observation = three slot updates; resolve the
  /// thread-local shard once instead of three times.
  inline void ObserveSlots(std::uint32_t first, std::uint64_t v) {
    internal::Shard& shard = LocalShard();
    shard.slots[first + HistogramBucket(v)].fetch_add(
        1, std::memory_order_relaxed);
    shard.slots[first + kHistogramBuckets].fetch_add(
        1, std::memory_order_relaxed);
    shard.slots[first + kHistogramBuckets + 1].fetch_add(
        v, std::memory_order_relaxed);
  }

  const std::uint64_t id_;  ///< Process-unique, never reused.
  mutable std::mutex mutex_;
  std::vector<Descriptor> descriptors_;
  /// Key "name\x1flabels" -> descriptor index.
  std::vector<std::pair<std::string, std::size_t>> index_;  // sorted
  std::vector<std::unique_ptr<internal::Shard>> shards_;
  std::uint32_t next_slot_ = 0;
};

inline void Counter::Inc(std::uint64_t n) const {
  if (reg_ != nullptr) reg_->AddToSlot(slot_, n);
}

inline void Gauge::Set(std::int64_t v) const {
  if (reg_ != nullptr) reg_->SetSlot(slot_, static_cast<std::uint64_t>(v));
}

inline void Gauge::Add(std::int64_t delta) const {
  if (reg_ != nullptr) {
    reg_->AddToSlot(slot_, static_cast<std::uint64_t>(delta));
  }
}

inline void Histogram::Observe(std::uint64_t v) const {
  if (reg_ != nullptr) reg_->ObserveSlots(slot_, v);
}

}  // namespace traceweaver::obs

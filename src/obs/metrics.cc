#include "obs/metrics.h"

#include <algorithm>
#include <atomic>

namespace traceweaver::obs {
namespace {

std::uint64_t NextRegistryId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string Key(const std::string& name, const std::string& labels) {
  return name + '\x1f' + labels;
}

/// Per-thread shard cache: (registry id, shard), oldest first. Registry
/// ids are process-unique and never reused, so a stale entry for a
/// destroyed registry can never be matched (its pointer is never
/// dereferenced); a miss prunes such entries against the live set.
thread_local std::vector<std::pair<std::uint64_t, internal::Shard*>>
    tls_shards;

/// Ids of the registries alive now, ascending (ids only grow). Leaked so
/// registries destroyed during static destruction can still deregister.
struct LiveRegistries {
  std::mutex mutex;
  std::vector<std::uint64_t> ids;
};

LiveRegistries& Live() {
  static auto* live = new LiveRegistries;
  return *live;
}

std::uint32_t SlotsFor(MetricType type) {
  return type == MetricType::kHistogram
             ? static_cast<std::uint32_t>(kHistogramBuckets) + 2
             : 1;
}

}  // namespace

std::uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      return HistogramBucketUpperBound(b);
    }
  }
  return HistogramBucketUpperBound(buckets.size() - 1);
}

const MetricSnapshot* RegistrySnapshot::Find(const std::string& name,
                                             const std::string& labels) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name && m.labels == labels) return &m;
  }
  return nullptr;
}

std::int64_t RegistrySnapshot::Value(const std::string& name,
                                     const std::string& labels) const {
  const MetricSnapshot* m = Find(name, labels);
  return m == nullptr ? 0 : m->value;
}

std::int64_t RegistrySnapshot::SumAcrossLabels(const std::string& name) const {
  std::int64_t total = 0;
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name) total += m.value;
  }
  return total;
}

std::vector<const MetricSnapshot*> RegistrySnapshot::Family(
    const std::string& name) const {
  std::vector<const MetricSnapshot*> out;
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name) out.push_back(&m);
  }
  return out;
}

MetricsRegistry::MetricsRegistry() : id_(NextRegistryId()) {
  LiveRegistries& live = Live();
  std::lock_guard<std::mutex> lock(live.mutex);
  live.ids.push_back(id_);
}

MetricsRegistry::~MetricsRegistry() {
  LiveRegistries& live = Live();
  std::lock_guard<std::mutex> lock(live.mutex);
  live.ids.erase(std::lower_bound(live.ids.begin(), live.ids.end(), id_));
}

std::uint32_t MetricsRegistry::Register(const std::string& name,
                                        const std::string& labels,
                                        MetricType type,
                                        const std::string& help,
                                        const std::string& unit,
                                        std::uint32_t slots) {
  const std::string key = Key(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it != index_.end() && it->first == key) {
    return descriptors_[it->second].slot;
  }
  if (next_slot_ + slots > internal::kShardSlots) return UINT32_MAX;
  Descriptor d;
  d.name = name;
  d.labels = labels;
  d.type = type;
  d.help = help;
  d.unit = unit;
  d.slot = next_slot_;
  next_slot_ += slots;
  index_.insert(it, {key, descriptors_.size()});
  descriptors_.push_back(std::move(d));
  return descriptors_.back().slot;
}

Counter MetricsRegistry::GetCounter(const std::string& name,
                                    const std::string& labels,
                                    const std::string& help,
                                    const std::string& unit) {
  const std::uint32_t slot = Register(name, labels, MetricType::kCounter,
                                      help, unit,
                                      SlotsFor(MetricType::kCounter));
  return slot == UINT32_MAX ? Counter{} : Counter{this, slot};
}

Gauge MetricsRegistry::GetGauge(const std::string& name,
                                const std::string& labels,
                                const std::string& help,
                                const std::string& unit) {
  const std::uint32_t slot = Register(name, labels, MetricType::kGauge, help,
                                      unit, SlotsFor(MetricType::kGauge));
  return slot == UINT32_MAX ? Gauge{} : Gauge{this, slot};
}

Histogram MetricsRegistry::GetHistogram(const std::string& name,
                                        const std::string& labels,
                                        const std::string& help,
                                        const std::string& unit) {
  const std::uint32_t slot = Register(name, labels, MetricType::kHistogram,
                                      help, unit,
                                      SlotsFor(MetricType::kHistogram));
  return slot == UINT32_MAX ? Histogram{} : Histogram{this, slot};
}

internal::Shard& MetricsRegistry::LocalShard() {
  // Newest first: a thread mostly records into the registry it made last.
  for (auto it = tls_shards.rbegin(); it != tls_shards.rend(); ++it) {
    if (it->first == id_) return *it->second;
  }
  // A miss happens once per (thread, registry): drop the entries of
  // destroyed registries, so the cache holds at most the live ones.
  {
    LiveRegistries& live = Live();
    std::lock_guard<std::mutex> lock(live.mutex);
    std::erase_if(tls_shards, [&](const auto& entry) {
      return !std::binary_search(live.ids.begin(), live.ids.end(),
                                 entry.first);
    });
  }
  auto owned = std::make_unique<internal::Shard>();
  internal::Shard* shard = owned.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::move(owned));
  }
  tls_shards.emplace_back(id_, shard);
  return *shard;
}

std::size_t MetricsRegistry::ThreadShardCacheSize() {
  return tls_shards.size();
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;
  snap.metrics.reserve(descriptors_.size());

  // Merge shards slot-wise; integer addition makes the merge independent
  // of shard order and of which thread recorded what.
  const auto slot_sum = [this](std::uint32_t slot) {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->slots[slot].load(std::memory_order_relaxed);
    }
    return total;
  };

  // Walk the sorted index so output order is (name, labels).
  for (const auto& [key, di] : index_) {
    (void)key;
    const Descriptor& d = descriptors_[di];
    MetricSnapshot m;
    m.name = d.name;
    m.labels = d.labels;
    m.type = d.type;
    m.help = d.help;
    m.unit = d.unit;
    if (d.type == MetricType::kHistogram) {
      m.histogram.buckets.resize(kHistogramBuckets);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        m.histogram.buckets[b] =
            slot_sum(d.slot + static_cast<std::uint32_t>(b));
      }
      m.histogram.count =
          slot_sum(d.slot + static_cast<std::uint32_t>(kHistogramBuckets));
      m.histogram.sum =
          slot_sum(d.slot + static_cast<std::uint32_t>(kHistogramBuckets) + 1);
    } else {
      m.value = static_cast<std::int64_t>(slot_sum(d.slot));
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    for (std::size_t s = 0; s < internal::kShardSlots; ++s) {
      shard->slots[s].store(0, std::memory_order_relaxed);
    }
  }
}

std::size_t MetricsRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return descriptors_.size();
}

}  // namespace traceweaver::obs

#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/json.h"

namespace ppsc {
namespace obs {

std::size_t Histogram::bucket_of(std::uint64_t value) {
  if (value == 0) return 0;
  std::size_t bit = 0;
  while (value >>= 1) ++bit;
  return std::min<std::size_t>(bit + 1, kBuckets - 1);
}

void Histogram::record(std::uint64_t value) {
  ++count;
  sum += value;
  max = std::max(max, value);
  ++buckets[bucket_of(value)];
}

void Histogram::merge(const Histogram& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
}

double Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t before = cum;
    cum += buckets[b];
    if (static_cast<double>(cum) < rank) continue;
    if (b == 0) return 0.0;  // bucket 0 holds exactly the value 0
    const double lower = static_cast<double>(1ull << (b - 1));
    // Bucket 63 is open-ended; max is its only honest upper edge. For
    // every bucket the clamp keeps the estimate at or below a value
    // that was actually recorded.
    double upper = b >= kBuckets - 1
                       ? static_cast<double>(max)
                       : static_cast<double>(1ull << b);
    upper = std::min(upper, static_cast<double>(max));
    // A nonempty bucket contains a value >= lower, so max >= lower and
    // the clamped edges can at worst coincide.
    if (upper <= lower) return lower;
    const double fraction = std::min(
        std::max((rank - static_cast<double>(before)) /
                     static_cast<double>(buckets[b]),
                 0.0),
        1.0);
    return lower + (upper - lower) * fraction;
  }
  return static_cast<double>(max);
}

std::string MetricSnapshot::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("counters").begin_object();
  for (const auto& entry : counters) {
    json.key(entry.first).value(entry.second);
  }
  json.end_object();
  json.key("histograms");
  write_histograms(json);
  json.end_object();
  return json.str();
}

void MetricSnapshot::write_histograms(JsonWriter& json) const {
  json.begin_object();
  for (const auto& entry : histograms) {
    const Histogram& h = entry.second;
    json.key(entry.first).begin_object();
    json.key("count").value(h.count);
    json.key("sum").value(h.sum);
    json.key("max").value(h.max);
    json.key("p50").value(h.quantile(0.5));
    json.key("p90").value(h.quantile(0.9));
    json.key("p99").value(h.quantile(0.99));
    json.key("buckets").begin_array();
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      const std::uint64_t lower = b == 0 ? 0 : (1ull << (b - 1));
      json.begin_array().value(lower).value(h.buckets[b]).end_array();
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();
}

bool env_truthy(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  return std::strcmp(env, "1") == 0 || std::strcmp(env, "true") == 0 ||
         std::strcmp(env, "on") == 0;
}

MetricRegistry::MetricRegistry() {
#if PPSC_OBS_ENABLED
  // PPSC_OBS_DUMP implies observation: a snapshot of a disabled
  // registry would always be empty, so asking for the dump enables
  // collection too. The atexit handler runs before static destruction
  // of anything registered later, and the registry itself is leaked,
  // so the final snapshot is safe to take there.
  const char* dump = std::getenv("PPSC_OBS_DUMP");
  const bool dump_requested = dump != nullptr && *dump != '\0';
  enabled_.store(env_truthy("PPSC_OBS") || dump_requested,
                 std::memory_order_relaxed);
  if (dump_requested) {
    std::atexit([] { write_snapshot_if_requested(); });
  }
#endif
}

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

#if PPSC_OBS_ENABLED

MetricRegistry::Sheet& MetricRegistry::local_sheet() {
  // One sheet per thread, owned by the registry and kept alive after
  // the thread exits so its contributions survive into snapshots (the
  // "merge at join" happens lazily, at snapshot time). The registry is
  // a leaked singleton, so the cached pointer can never dangle.
  thread_local Sheet* sheet = nullptr;
  if (sheet == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    sheets_.push_back(std::make_unique<Sheet>());
    sheet = sheets_.back().get();
  }
  return *sheet;
}

void MetricRegistry::add(const char* name, std::uint64_t delta) {
  if (!enabled()) return;
  Sheet& sheet = local_sheet();
  std::lock_guard<std::mutex> lock(sheet.mu);
  sheet.counters[name] += delta;
}

void MetricRegistry::record(const char* name, std::uint64_t value) {
  if (!enabled()) return;
  Sheet& sheet = local_sheet();
  std::lock_guard<std::mutex> lock(sheet.mu);
  sheet.histograms[name].record(value);
}

MetricSnapshot MetricRegistry::snapshot() const {
  MetricSnapshot merged;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& sheet : sheets_) {
    std::lock_guard<std::mutex> sheet_lock(sheet->mu);
    for (const auto& entry : sheet->counters) {
      merged.counters[entry.first] += entry.second;
    }
    for (const auto& entry : sheet->histograms) {
      merged.histograms[entry.first].merge(entry.second);
    }
  }
  return merged;
}

void MetricRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& sheet : sheets_) {
    std::lock_guard<std::mutex> sheet_lock(sheet->mu);
    sheet->counters.clear();
    sheet->histograms.clear();
  }
}

#else  // !PPSC_OBS_ENABLED

void MetricRegistry::add(const char* name, std::uint64_t delta) {
  (void)name;
  (void)delta;
}

void MetricRegistry::record(const char* name, std::uint64_t value) {
  (void)name;
  (void)value;
}

MetricSnapshot MetricRegistry::snapshot() const { return {}; }

void MetricRegistry::reset() {}

#endif  // PPSC_OBS_ENABLED

bool write_snapshot_if_requested() {
  const char* path = std::getenv("PPSC_OBS_DUMP");
  if (path == nullptr || *path == '\0') return false;
  const std::string json = MetricRegistry::global().snapshot().to_json();
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "obs::write_snapshot_if_requested: cannot open %s\n",
                 path);
    return false;
  }
  std::fputs(json.c_str(), file);
  std::fputc('\n', file);
  std::fclose(file);
  return true;
}

}  // namespace obs
}  // namespace ppsc

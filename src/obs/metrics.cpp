#include "metrics.hpp"

#include <cstdio>
#include <string>

#if TBSTC_OBS_ENABLED

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

#include "json.hpp"

namespace tbstc::obs {

namespace {

enum class Kind : uint8_t { Counter, Gauge, Histogram };

/** Immutable description of one registered metric. */
struct MetricDef
{
    std::string name;
    Kind kind = Kind::Counter;
    Domain domain = Domain::Deterministic;
    uint32_t slot = 0; ///< Counter/gauge slot, or first bucket index.
    uint32_t bins = 0; ///< Histogram bucket count.
    double lo = 0.0;
    double hi = 1.0;
};

constexpr int64_t kGaugeUnset = std::numeric_limits<int64_t>::min();

/** Raw metric storage; grown on demand to the slot being written. */
struct Store
{
    std::vector<uint64_t> counters;
    std::vector<int64_t> gauges;
    std::vector<uint64_t> buckets;

    void
    clear()
    {
        counters.assign(counters.size(), 0);
        gauges.assign(gauges.size(), kGaugeUnset);
        buckets.assign(buckets.size(), 0);
    }
};

/** Fold @p src into @p dst (associative + commutative per element). */
void
foldStore(Store &dst, const Store &src)
{
    if (dst.counters.size() < src.counters.size())
        dst.counters.resize(src.counters.size(), 0);
    for (size_t i = 0; i < src.counters.size(); ++i)
        dst.counters[i] += src.counters[i];
    if (dst.gauges.size() < src.gauges.size())
        dst.gauges.resize(src.gauges.size(), kGaugeUnset);
    for (size_t i = 0; i < src.gauges.size(); ++i)
        dst.gauges[i] = std::max(dst.gauges[i], src.gauges[i]);
    if (dst.buckets.size() < src.buckets.size())
        dst.buckets.resize(src.buckets.size(), 0);
    for (size_t i = 0; i < src.buckets.size(); ++i)
        dst.buckets[i] += src.buckets[i];
}

struct Shard;

/**
 * Registry: metric definitions plus every live thread shard. Shards of
 * exited threads fold into `retired` so pool resizes lose nothing.
 */
struct Registry
{
    std::mutex m;
    std::vector<MetricDef> defs;
    std::map<std::string, size_t, std::less<>> byName;
    uint32_t counterSlots = 0;
    uint32_t gaugeSlots = 0;
    uint32_t bucketSlots = 0;
    std::vector<Shard *> live;
    Store retired;
};

Registry &
registry()
{
    // Leaked intentionally: worker threads (and their Shard
    // destructors) may outlive static destruction order otherwise.
    static Registry *r = new Registry;
    return *r;
}

/** One thread's private storage, registered for merging at export. */
struct Shard
{
    Store store;

    Shard()
    {
        Registry &r = registry();
        std::lock_guard lk(r.m);
        r.live.push_back(this);
    }

    ~Shard()
    {
        Registry &r = registry();
        std::lock_guard lk(r.m);
        foldStore(r.retired, store);
        std::erase(r.live, this);
    }

    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;
};

Shard &
localShard()
{
    thread_local Shard shard;
    return shard;
}

/** Register-or-lookup under the registry lock. */
size_t
defineMetric(std::string_view name, Kind kind, Domain domain,
             double lo, double hi, uint32_t bins)
{
    Registry &r = registry();
    std::lock_guard lk(r.m);
    if (const auto it = r.byName.find(name); it != r.byName.end())
        return it->second; // First registration's geometry wins.

    MetricDef def;
    def.name = std::string(name);
    def.kind = kind;
    def.domain = domain;
    switch (kind) {
      case Kind::Counter:
        def.slot = r.counterSlots++;
        break;
      case Kind::Gauge:
        def.slot = r.gaugeSlots++;
        break;
      case Kind::Histogram:
        def.bins = std::clamp<uint32_t>(bins, 1, 512);
        if (!(hi > lo))
            hi = lo + 1.0;
        def.lo = lo;
        def.hi = hi;
        def.slot = r.bucketSlots;
        r.bucketSlots += def.bins;
        break;
    }
    r.defs.push_back(def);
    r.byName.emplace(def.name, r.defs.size() - 1);
    return r.defs.size() - 1;
}

/** Merge retired + live shards into one Store (caller holds no lock). */
Store
mergedStore()
{
    Registry &r = registry();
    std::lock_guard lk(r.m);
    Store out = r.retired;
    for (const Shard *s : r.live)
        foldStore(out, s->store);
    return out;
}

void
appendSection(std::string &out, const std::string &indent,
              const std::vector<const MetricDef *> &defs,
              const Store &store)
{
    std::string counters;
    std::string gauges;
    std::string hists;
    for (const MetricDef *d : defs) {
        switch (d->kind) {
          case Kind::Counter: {
            const uint64_t v = d->slot < store.counters.size()
                ? store.counters[d->slot]
                : 0;
            counters += (counters.empty() ? "" : ", ")
                + jsonQuote(d->name) + ": " + std::to_string(v);
            break;
          }
          case Kind::Gauge: {
            const int64_t v = d->slot < store.gauges.size()
                ? store.gauges[d->slot]
                : kGaugeUnset;
            gauges += (gauges.empty() ? "" : ", ") + jsonQuote(d->name)
                + ": " + std::to_string(v == kGaugeUnset ? 0 : v);
            break;
          }
          case Kind::Histogram: {
            uint64_t total = 0;
            std::string buckets;
            for (uint32_t b = 0; b < d->bins; ++b) {
                const size_t i = d->slot + b;
                const uint64_t v =
                    i < store.buckets.size() ? store.buckets[i] : 0;
                total += v;
                buckets += (b ? ", " : "") + std::to_string(v);
            }
            hists += (hists.empty() ? "" : ",\n" + indent + "  ")
                + jsonQuote(d->name) + ": {\"lo\": " + jsonNumber(d->lo)
                + ", \"hi\": " + jsonNumber(d->hi) + ", \"buckets\": ["
                + buckets + "], \"total\": " + std::to_string(total)
                + "}";
            break;
          }
        }
    }
    out += indent + "\"counters\": {" + counters + "},\n";
    out += indent + "\"gauges\": {" + gauges + "},\n";
    out += indent + "\"histograms\": {";
    if (!hists.empty())
        out += "\n" + indent + "  " + hists + "\n" + indent;
    out += "}";
}

} // namespace

void
Counter::add(uint64_t delta) const
{
    if (!metricsEnabled())
        return;
    auto &c = localShard().store.counters;
    if (c.size() <= slot_)
        c.resize(slot_ + 1, 0);
    c[slot_] += delta;
}

void
Gauge::record(int64_t v) const
{
    if (!metricsEnabled())
        return;
    auto &g = localShard().store.gauges;
    if (g.size() <= slot_)
        g.resize(slot_ + 1, kGaugeUnset);
    g[slot_] = std::max(g[slot_], v);
}

void
Histogram::observe(double x) const
{
    if (!metricsEnabled() || std::isnan(x))
        return;
    uint32_t bin = 0;
    if (x >= hi_) {
        bin = bins_ - 1;
    } else if (x > lo_) {
        const double f = (x - lo_) / (hi_ - lo_);
        bin = std::min<uint32_t>(
            bins_ - 1,
            static_cast<uint32_t>(f * static_cast<double>(bins_)));
    }
    auto &b = localShard().store.buckets;
    const size_t i = firstBucket_ + bin;
    if (b.size() <= i)
        b.resize(i + 1, 0);
    b[i] += 1;
}

Counter
counter(std::string_view name, Domain domain)
{
    const size_t id =
        defineMetric(name, Kind::Counter, domain, 0, 0, 0);
    Counter c;
    {
        Registry &r = registry();
        std::lock_guard lk(r.m);
        c.slot_ = r.defs[id].slot;
    }
    return c;
}

Gauge
gauge(std::string_view name, Domain domain)
{
    const size_t id = defineMetric(name, Kind::Gauge, domain, 0, 0, 0);
    Gauge g;
    {
        Registry &r = registry();
        std::lock_guard lk(r.m);
        g.slot_ = r.defs[id].slot;
    }
    return g;
}

Histogram
histogram(std::string_view name, double lo, double hi, uint32_t bins,
          Domain domain)
{
    const size_t id =
        defineMetric(name, Kind::Histogram, domain, lo, hi, bins);
    Histogram h;
    {
        Registry &r = registry();
        std::lock_guard lk(r.m);
        const MetricDef &d = r.defs[id];
        h.firstBucket_ = d.slot;
        h.bins_ = d.bins;
        h.lo_ = d.lo;
        h.hi_ = d.hi;
    }
    return h;
}

std::string
metricsJson(bool includeHost)
{
    const Store merged = mergedStore();

    // Snapshot the defs sorted by name, split by domain.
    std::vector<MetricDef> defs;
    {
        Registry &r = registry();
        std::lock_guard lk(r.m);
        defs = r.defs;
    }
    std::sort(defs.begin(), defs.end(),
              [](const MetricDef &a, const MetricDef &b) {
                  return a.name < b.name;
              });
    std::vector<const MetricDef *> det;
    std::vector<const MetricDef *> host;
    for (const MetricDef &d : defs)
        (d.domain == Domain::Deterministic ? det : host).push_back(&d);

    std::string out = "{\n  \"schema\": \"tbstc.metrics.v1\",\n";
    appendSection(out, "  ", det, merged);
    if (includeHost) {
        out += ",\n  \"host\": {\n";
        appendSection(out, "    ", host, merged);
        out += "\n  }";
    }
    out += "\n}\n";
    return out;
}

bool
writeMetricsJson(const std::string &path, bool includeHost)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string json = metricsJson(includeHost);
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

void
resetMetrics()
{
    Registry &r = registry();
    std::lock_guard lk(r.m);
    r.retired.clear();
    for (Shard *s : r.live)
        s->store.clear();
}

} // namespace tbstc::obs

#else // TBSTC_OBS_ENABLED == 0: keep the link surface alive.

namespace tbstc::obs {

void Counter::add(uint64_t) const {}
void Gauge::record(int64_t) const {}
void Histogram::observe(double) const {}
Counter counter(std::string_view, Domain) { return {}; }
Gauge gauge(std::string_view, Domain) { return {}; }
Histogram
histogram(std::string_view, double, double, uint32_t, Domain)
{
    return {};
}

std::string
metricsJson(bool)
{
    return "{\n  \"schema\": \"tbstc.metrics.v1\",\n"
           "  \"counters\": {},\n  \"gauges\": {},\n"
           "  \"histograms\": {}\n}\n";
}

bool
writeMetricsJson(const std::string &path, bool includeHost)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string json = metricsJson(includeHost);
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

void resetMetrics() {}

} // namespace tbstc::obs

#endif // TBSTC_OBS_ENABLED

#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "bench.hpp"
#include "obs/json.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

thread_local uint32_t t_top = 0;

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(Clock::now()
                                                     - processStart())
        .count();
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

uint32_t
Tracer::begin(std::string name, uint32_t parent, uint64_t op, bool probe)
{
    const double start = nowUs();
    const std::lock_guard lk(m_);
    SpanRec rec;
    rec.id = static_cast<uint32_t>(spans_.size() + 1);
    rec.parent = parent;
    rec.name = std::move(name);
    rec.startUs = start;
    rec.op = parent != 0 ? spans_[parent - 1].op : op;
    rec.probe = probe;
    spans_.push_back(std::move(rec));
    return spans_.back().id;
}

void
Tracer::end(uint32_t id)
{
    const double end = nowUs();
    const std::lock_guard lk(m_);
    spans_[id - 1].endUs = end;
}

std::vector<SpanRec>
Tracer::snapshot() const
{
    const std::lock_guard lk(m_);
    return spans_;
}

bool
Tracer::writeJson(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("[\n", f);
    const auto spans = snapshot();
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRec &s = spans[i];
        std::fprintf(f,
                     "{\"id\": %u, \"parent\": %u, \"name\": %s, "
                     "\"start_us\": %.3f, \"end_us\": %.3f, \"op\": %llu, "
                     "\"probe\": %s}%s\n",
                     s.id, s.parent, tbstc::obs::jsonQuote(s.name).c_str(),
                     s.startUs, s.endUs,
                     static_cast<unsigned long long>(s.op),
                     s.probe ? "true" : "false",
                     i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

Span::Span(std::string name)
{
    open(std::move(name), t_top, 0, false);
}

Span::Span(std::string name, uint32_t parent)
{
    open(std::move(name), parent, 0, false);
}

Span::Span(std::string name, OpRoot root)
{
    open(std::move(name), 0, root.op, false);
}

Span::Span(std::string name, Probe)
{
    open(std::move(name), t_top, 0, true);
}

void
Span::open(std::string name, uint32_t parent, uint64_t op, bool probe)
{
    Tracer &tr = Tracer::instance();
    if (!tr.enabled())
        return;
    id_ = tr.begin(std::move(name), parent, op, probe);
    savedTop_ = t_top;
    t_top = id_;
}

Span::~Span()
{
    if (id_ == 0)
        return;
    Tracer::instance().end(id_);
    t_top = savedTop_;
}

std::vector<double>
selfTimesMs(const std::vector<SpanRec> &spans)
{
    // @p spans may be any subset of a trace: find parents by id.
    std::unordered_map<uint32_t, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const SpanRec &s : spans) {
        const auto it = index.find(s.parent);
        if (it != index.end())
            kids[it->second].emplace_back(s.startUs, s.endUs);
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = selfTimeUs(spans[i].startUs, spans[i].endUs,
                             std::move(kids[i]))
            / 1000.0;
    return self;
}

std::vector<double>
perOpTotalsMs(const std::vector<SpanRec> &spans, const std::string &name,
              bool selfTime)
{
    const std::vector<double> self =
        selfTime ? selfTimesMs(spans) : std::vector<double>{};
    std::map<uint64_t, double> byOp;
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == name)
            byOp[spans[i].op] += selfTime ? self[i] : spans[i].durMs();
    std::vector<double> out;
    for (const auto &[op, ms] : byOp)
        out.push_back(ms);
    return out;
}

double
opTotalMs(const std::vector<SpanRec> &spans, const std::string &name,
          uint64_t op)
{
    double ms = 0.0;
    for (const SpanRec &s : spans)
        if (s.op == op && s.name == name)
            ms += s.durMs();
    return ms;
}

std::vector<double>
durationsMs(const std::vector<SpanRec> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const SpanRec &s : spans)
        if (s.name == name)
            out.push_back(s.durMs());
    return out;
}

} // namespace perfbench

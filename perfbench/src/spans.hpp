/**
 * @file
 * In-memory span recorder of the traced pass. Spans are recorded by
 * the harness around its calls into the library's public functions
 * (the library itself is not instrumented), kept in memory, and
 * written out as JSON when the run ends.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span. Ids are 1-based; parent 0 means a root. */
struct SpanRec
{
    uint32_t id = 0;
    uint32_t parent = 0;
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    uint64_t op = 0;
    /** Timing probe outside the op's own call chain (e.g. usMask). */
    bool probe = false;

    double durMs() const { return (endUs - startUs) / 1000.0; }
};

class Tracer
{
  public:
    static Tracer &instance();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span; the op id is inherited from @p parent if set. */
    uint32_t begin(std::string name, uint32_t parent, uint64_t op,
                   bool probe);
    void end(uint32_t id);

    std::vector<SpanRec> snapshot() const;

    /** Write every span as a JSON array; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_ = false;
    mutable std::mutex m_;
    std::vector<SpanRec> spans_; ///< Guarded by m_; index = id - 1.
};

/** Tag: the span is the root of operation @p op. */
struct OpRoot
{
    uint64_t op = 0;
};

/** Tag: the span times a probe outside the op's call chain. */
struct Probe
{
};

/**
 * RAII span. Without an explicit parent it nests under the innermost
 * open span of the calling thread; a worker thread passes the id of
 * the span that caused its work. No-op while tracing is off.
 */
class Span
{
  public:
    explicit Span(std::string name);
    Span(std::string name, uint32_t parent);
    Span(std::string name, OpRoot root);
    Span(std::string name, Probe);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint32_t id() const { return id_; }

  private:
    void open(std::string name, uint32_t parent, uint64_t op, bool probe);

    uint32_t id_ = 0;
    uint32_t savedTop_ = 0;
};

/** Self time of every span in ms, indexed like @p spans. */
std::vector<double> selfTimesMs(const std::vector<SpanRec> &spans);

/**
 * Per-op sum of the durations (or self times) of spans named @p name;
 * one entry per op that has such a span, in op order.
 */
std::vector<double> perOpTotalsMs(const std::vector<SpanRec> &spans,
                                  const std::string &name,
                                  bool selfTime = false);

/** Summed duration in ms of the spans named @p name in op @p op. */
double opTotalMs(const std::vector<SpanRec> &spans, const std::string &name,
                 uint64_t op);

/** Durations in ms of every span named @p name. */
std::vector<double> durationsMs(const std::vector<SpanRec> &spans,
                                const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP

/**
 * @file
 * Host-time stage instrumentation: one RAII guard records both a trace
 * span and a host-domain timing sample, so every stage of a layer
 * build is visible in the Chrome trace and in `--metrics-host` output
 * without a rebuild.
 *
 * Stage timings depend on the host, so they live in Domain::Host and
 * never touch the deterministic export.
 */

#ifndef TBSTC_OBS_STAGE_HPP
#define TBSTC_OBS_STAGE_HPP

#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tbstc::obs {

/**
 * A named host stage. Registers, in Domain::Host, the histogram
 * "<name>.ms" (wall milliseconds per execution, 4 ms buckets over
 * [0, 512)) and the counter "<name>.us" (total wall microseconds, so
 * means are exact). Intended use is a function-local static:
 * @code
 *   static const obs::Stage stage("core.usMask");
 *   const obs::ScopedStage timed(stage);
 * @endcode
 */
class Stage
{
  public:
    explicit Stage(std::string_view name);

    const std::string &name() const { return name_; }

  private:
    friend class ScopedStage;
    std::string name_;
    Histogram ms_;
    Counter us_;
};

/** RAII: a ScopedSpan named after @p stage plus one timing sample. */
class ScopedStage
{
  public:
    explicit ScopedStage(const Stage &stage);
    ~ScopedStage();
    ScopedStage(const ScopedStage &) = delete;
    ScopedStage &operator=(const ScopedStage &) = delete;

  private:
    const Stage &stage_;
    ScopedSpan span_;
    double startUs_ = -1.0; ///< < 0: metrics were off at construction.
};

} // namespace tbstc::obs

#endif // TBSTC_OBS_STAGE_HPP

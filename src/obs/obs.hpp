/**
 * @file
 * Umbrella header for the telemetry subsystem: the deterministic
 * metrics registry (metrics.hpp), the Chrome-trace event tracer
 * (trace.hpp) and host-stage timers combining the two (stage.hpp).
 * See docs/observability.md for the event taxonomy and metric naming
 * convention.
 */

#ifndef TBSTC_OBS_OBS_HPP
#define TBSTC_OBS_OBS_HPP

#include "obs/metrics.hpp"
#include "obs/stage.hpp"
#include "obs/trace.hpp"

#endif // TBSTC_OBS_OBS_HPP

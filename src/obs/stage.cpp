#include "obs/stage.hpp"

#include <chrono>

namespace tbstc::obs {

namespace {

double
steadyUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Stage::Stage(std::string_view name)
    : name_(name),
      ms_(histogram(name_ + ".ms", 0.0, 512.0, 128, Domain::Host)),
      us_(counter(name_ + ".us", Domain::Host))
{
}

ScopedStage::ScopedStage(const Stage &stage)
    : stage_(stage), span_(stage.name())
{
    if (metricsEnabled())
        startUs_ = steadyUs();
}

ScopedStage::~ScopedStage()
{
    if (startUs_ < 0.0)
        return;
    const double us = steadyUs() - startUs_;
    stage_.ms_.observe(us / 1000.0);
    stage_.us_.addRounded(us);
}

} // namespace tbstc::obs

#include "mask_search.hpp"

#include <iterator>
#include <optional>

#include "pattern_table.hpp"
#include "util/fmt.hpp"
#include "util/logging.hpp"

namespace tbstc::core {

using util::unexpected;

namespace {

/** The closed strategy set; "" names row 0, the default. */
constexpr std::string_view kStrategies[] = {kGreedyStrategy,
                                            kOptimalStrategy};

/** Row of @p name in kStrategies, or nullopt when it names none. */
std::optional<size_t>
strategyRow(std::string_view name)
{
    if (name.empty())
        return 0;
    for (size_t i = 0; i < std::size(kStrategies); ++i)
        if (kStrategies[i] == name)
            return i;
    return std::nullopt;
}

util::Unexpected<MaskError>
fail(MaskErrorKind kind, std::string message)
{
    return unexpected(MaskError{kind, std::move(message)});
}

/**
 * tryMakeMask, with the usHamming step only when @p distance is set:
 * validate @p req against the family's row, run Alg. 1 step 1 once if
 * the family needs it, and generate.
 */
util::Result<MaskOutput, MaskError>
makeMask(const Matrix &scores, const MaskRequest &req, bool distance)
{
    // Look the strategy up front even for non-TBS patterns: a typo'd
    // strategy must never silently degrade to the default.
    const std::optional<size_t> strategy = strategyRow(req.strategy);
    if (!strategy)
        return fail(MaskErrorKind::UnknownStrategy,
                    util::formatStr("unknown mask strategy \"{}\"",
                                    req.strategy));
    if (!(req.sparsity >= 0.0 && req.sparsity <= 1.0))
        return fail(MaskErrorKind::BadSparsity,
                    util::formatStr("sparsity {} is outside [0, 1]",
                                    req.sparsity));
    const PatternSpec &spec = patternSpec(req.pattern);
    const size_t min_m = spec.evenM ? 4 : 1;
    if (req.m < min_m || req.m > spec.maxM
        || (spec.evenM && req.m % 2 != 0))
        return fail(MaskErrorKind::BadBlockSize,
                    util::formatStr("{} requires {} block size in "
                                    "[{}, {}]; got {}",
                                    spec.name, spec.evenM ? "an even" : "a",
                                    min_m, spec.maxM, req.m));
    if (scores.cols() % req.m != 0
        || (spec.blocks && scores.rows() % req.m != 0))
        return fail(MaskErrorKind::NotDivisible,
                    util::formatStr(
                        "matrix {}x{} does not tile by m = {} as {} "
                        "requires; pad the workload first",
                        scores.rows(), scores.cols(), req.m, spec.name));
    for (const uint8_t c : req.candidates) {
        if (c > req.m)
            return fail(MaskErrorKind::BadCandidates,
                        util::formatStr(
                            "candidate N = {} exceeds block size m = {}",
                            c, req.m));
    }
    const std::vector<uint8_t> candidates = spec.ladder
        ? spec.ladder(req.m)
        : req.candidates.empty() ? defaultCandidates(req.m)
                                 : req.candidates;

    const size_t target = targetNnz(scores.size(), req.sparsity);
    const bool step1 = spec.step1 == Step1::Mask
        || (distance && spec.step1 == Step1::Distance);
    const Mask us = step1 ? usMask(scores, req.sparsity) : Mask();
    MaskOutput out;
    out.meta.m = req.m;
    spec.generate({scores, req.sparsity, req.m, candidates, us, target,
                   kStrategies[*strategy] == kOptimalStrategy},
                  out);
    if (distance)
        out.usHamming = spec.step1 == Step1::None
            ? scores.size() - target
            : out.mask.hamming(us);
    return out;
}

} // namespace

const char *
maskErrorKindName(MaskErrorKind kind)
{
    switch (kind) {
      case MaskErrorKind::UnknownStrategy: return "unknown_strategy";
      case MaskErrorKind::BadSparsity:     return "bad_sparsity";
      case MaskErrorKind::BadBlockSize:    return "bad_block_size";
      case MaskErrorKind::NotDivisible:    return "not_divisible";
      case MaskErrorKind::BadCandidates:   return "bad_candidates";
    }
    util::panic("unknown MaskErrorKind");
}

bool
isMaskStrategy(std::string_view name)
{
    return strategyRow(name).has_value();
}

std::string
canonicalMaskStrategy(std::string_view name)
{
    return name == kGreedyStrategy ? std::string() : std::string(name);
}

util::Result<MaskOutput, MaskError>
tryMakeMask(const Matrix &scores, const MaskRequest &req)
{
    return makeMask(scores, req, /*distance=*/true);
}

Mask
patternMask(Pattern p, const Matrix &scores, double sparsity, size_t m,
            std::span<const uint8_t> candidates)
{
    MaskRequest req;
    req.pattern = p;
    req.sparsity = sparsity;
    req.m = m;
    req.candidates.assign(candidates.begin(), candidates.end());
    auto out = makeMask(scores, req, /*distance=*/false);
    if (!out)
        util::fatal("{}", out.error().message);
    return std::move(out->mask);
}

} // namespace tbstc::core

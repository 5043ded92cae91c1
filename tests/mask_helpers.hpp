/**
 * @file
 * Test shorthand for tryMakeMask on a request the test knows is valid.
 */

#ifndef TBSTC_TESTS_MASK_HELPERS_HPP
#define TBSTC_TESTS_MASK_HELPERS_HPP

#include <stdexcept>

#include "core/mask_search.hpp"

namespace tbstc::test {

/** tryMakeMask(scores, {p, strategy, sparsity, m}); throws on error. */
inline core::MaskOutput
makeMask(const core::Matrix &scores, core::Pattern p, double sparsity,
         size_t m = 8, const char *strategy = "")
{
    core::MaskRequest req;
    req.pattern = p;
    req.strategy = strategy;
    req.sparsity = sparsity;
    req.m = m;
    auto res = core::tryMakeMask(scores, req);
    if (!res)
        throw std::runtime_error(res.error().message);
    return std::move(res).value();
}

} // namespace tbstc::test

#endif // TBSTC_TESTS_MASK_HELPERS_HPP

#include "pattern.hpp"

#include "pattern_table.hpp"

namespace tbstc::core {

std::string
patternName(Pattern p)
{
    return patternSpec(p).name;
}

std::string
dimName(SparsityDim d)
{
    return d == SparsityDim::Reduction ? "row" : "col";
}

std::vector<uint8_t>
defaultCandidates(size_t m)
{
    // Powers of two up to M, plus the empty block: {0, 1, 2, 4, ..., M}.
    std::vector<uint8_t> c{0};
    for (size_t n = 1; n <= m; n *= 2)
        c.push_back(static_cast<uint8_t>(n));
    return c;
}

} // namespace tbstc::core

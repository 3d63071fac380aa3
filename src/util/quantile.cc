#include "util/quantile.hh"

#include <algorithm>
#include <cmath>

namespace mica::util
{

size_t
quantileRank(double q, uint64_t n)
{
    if (n == 0)
        return 0;
    if (q <= 0.0)
        return 0;
    if (q >= 1.0)
        return n - 1;
    auto r = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
    if (r > 0)
        --r;
    if (r >= n)
        r = n - 1;
    return static_cast<size_t>(r);
}

double
ExactQuantiles::quantile(double q) const
{
    if (values_.empty())
        return 0.0;
    std::sort(values_.begin(), values_.end());
    return values_[quantileRank(q, values_.size())];
}

} // namespace mica::util

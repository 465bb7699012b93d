#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace vhive {

void
Samples::add(double v)
{
    data.push_back(v);
    sortedValid = false;
}

void
Samples::clear()
{
    data.clear();
    sorted.clear();
    sortedValid = true;
}

double
Samples::sum() const
{
    double s = 0.0;
    for (double v : data)
        s += v;
    return s;
}

double
Samples::mean() const
{
    if (data.empty())
        return 0.0;
    return sum() / static_cast<double>(data.size());
}

double
Samples::geomean() const
{
    if (data.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : data) {
        VHIVE_ASSERT(v > 0.0);
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(data.size()));
}

double
Samples::min() const
{
    if (data.empty())
        return 0.0;
    return *std::min_element(data.begin(), data.end());
}

double
Samples::max() const
{
    if (data.empty())
        return 0.0;
    return *std::max_element(data.begin(), data.end());
}

double
Samples::stddev() const
{
    if (data.size() < 2)
        return 0.0;
    double m = mean();
    double acc = 0.0;
    for (double v : data)
        acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<double>(data.size() - 1));
}

const std::vector<double> &
Samples::sortedValues() const
{
    if (!sortedValid) {
        sorted = data;
        std::sort(sorted.begin(), sorted.end());
        sortedValid = true;
    }
    return sorted;
}

double
Samples::percentile(double p) const
{
    if (data.empty())
        return 0.0;
    VHIVE_ASSERT(p >= 0.0 && p <= 100.0);
    const std::vector<double> &s = sortedValues();
    if (s.size() == 1)
        return s[0];
    double rank = (p / 100.0) * static_cast<double>(s.size() - 1);
    auto lo_idx = static_cast<size_t>(rank);
    size_t hi_idx = std::min(lo_idx + 1, s.size() - 1);
    double frac = rank - static_cast<double>(lo_idx);
    return s[lo_idx] * (1.0 - frac) + s[hi_idx] * frac;
}

} // namespace vhive

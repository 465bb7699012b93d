/**
 * @file
 * Lightweight statistics containers used for experiment reporting:
 * counters, running summaries, and sample-exact percentile tracking.
 */

#ifndef VHIVE_UTIL_STATS_HH
#define VHIVE_UTIL_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace vhive {

/**
 * Collects scalar samples and answers summary queries. Keeps every sample
 * (experiments here produce at most a few million), so percentiles are
 * exact rather than approximated.
 */
class Samples
{
  public:
    /** Record one sample. */
    void add(double v);

    /** Number of recorded samples. */
    std::int64_t count() const { return static_cast<std::int64_t>(data.size()); }

    /** Sum of all samples; 0 when empty. */
    double sum() const;

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Geometric mean; requires all samples > 0; 0 when empty. */
    double geomean() const;

    /** Smallest sample; 0 when empty. */
    double min() const;

    /** Largest sample; 0 when empty. */
    double max() const;

    /** Sample standard deviation; 0 for fewer than two samples. */
    double stddev() const;

    /**
     * Exact percentile by linear interpolation between closest ranks.
     * @param p Percentile in [0, 100].
     */
    double percentile(double p) const;

    /** Remove all samples. */
    void clear();

    /** Raw access for custom post-processing, in arrival order (no
     * query reorders them). */
    const std::vector<double> &values() const { return data; }

  private:
    /** The samples in ascending order: a cached copy, rebuilt on the
     * first percentile() after add() or clear(). */
    const std::vector<double> &sortedValues() const;

    std::vector<double> data;
    mutable std::vector<double> sorted;
    mutable bool sortedValid = true;
};

/**
 * A named monotonically increasing counter.
 */
class Counter
{
  public:
    /** Increase the counter by @p delta (default 1). */
    void inc(std::int64_t delta = 1) { _value += delta; }

    /** Current value. */
    std::int64_t value() const { return _value; }

    /** Reset to zero. */
    void reset() { _value = 0; }

  private:
    std::int64_t _value = 0;
};

/**
 * Welford-style running mean/variance without sample retention, for hot
 * paths where storing every sample would be wasteful.
 */
class RunningStats
{
  public:
    /** Record one sample. */
    void add(double v);

    std::int64_t count() const { return n; }
    double mean() const { return n ? m : 0.0; }
    double variance() const;
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }

  private:
    std::int64_t n = 0;
    double m = 0.0;
    double s = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

} // namespace vhive

#endif // VHIVE_UTIL_STATS_HH

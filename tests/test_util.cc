/**
 * @file
 * Unit tests for the util module: units, RNG determinism and
 * distribution shape, statistics containers, and the table printer.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace vhive {
namespace {

TEST(Units, TimeLiterals)
{
    EXPECT_EQ(usec(1), 1000);
    EXPECT_EQ(msec(1), 1000 * 1000);
    EXPECT_EQ(sec(1), 1000LL * 1000 * 1000);
    EXPECT_DOUBLE_EQ(toMs(msec(232)), 232.0);
    EXPECT_DOUBLE_EQ(toUs(usec(122)), 122.0);
}

TEST(Units, PageMath)
{
    EXPECT_EQ(kPageSize, 4096);
    EXPECT_EQ(pagesForBytes(0), 0);
    EXPECT_EQ(pagesForBytes(1), 1);
    EXPECT_EQ(pagesForBytes(4096), 1);
    EXPECT_EQ(pagesForBytes(4097), 2);
    EXPECT_EQ(pagesForBytes(8 * kMiB), 2048);
    EXPECT_EQ(bytesForPages(2048), 8 * kMiB);
}

TEST(Units, Throughput)
{
    // 8 MB in 10 ms -> 800 MB/s (decimal MB as the paper reports).
    EXPECT_NEAR(mbps(8'000'000, msec(10)), 800.0, 1e-9);
    EXPECT_DOUBLE_EQ(mbps(123, 0), 0.0);
}

TEST(Rng, DeterministicStreams)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());

    Rng named1(42, "disk"), named2(42, "disk"), other(42, "cpu");
    EXPECT_EQ(named1.next(), named2.next());
    EXPECT_NE(named1.next(), other.next());
}

TEST(Rng, UniformBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        auto v = rng.uniformInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, GeometricMeanConverges)
{
    Rng rng(123);
    for (double mean : {1.0, 2.4, 3.0, 5.0}) {
        double acc = 0;
        const int n = 40000;
        for (int i = 0; i < n; ++i)
            acc += static_cast<double>(rng.geometric(mean));
        double sample_mean = acc / n;
        EXPECT_NEAR(sample_mean, mean, mean * 0.05)
            << "target mean " << mean;
    }
}

TEST(Rng, GeometricMinimumIsOne)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.geometric(1.5), 1);
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng rng(99);
    double acc = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        acc += rng.exponential(250.0);
    EXPECT_NEAR(acc / n, 250.0, 10.0);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(1234);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(17);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    rng.shuffle(10, [&](std::int64_t i, std::int64_t j) {
        std::swap(v[i], v[j]);
    });
    std::sort(v.begin(), v.end());
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(v[i], i);
}

TEST(Samples, BasicSummary)
{
    Samples s;
    EXPECT_EQ(s.count(), 0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(Samples, Geomean)
{
    Samples s;
    s.add(1.0);
    s.add(4.0);
    s.add(16.0);
    EXPECT_NEAR(s.geomean(), 4.0, 1e-9);
}

TEST(Samples, PaperGeomeanSpeedup)
{
    // The paper's "3.7x average" is the geometric mean of per-function
    // speedups; sanity-check our helper reproduces it from the Fig. 8
    // numbers.
    Samples s;
    const double base[] = {232, 437, 309, 594, 535, 647, 1424, 503,
                           8057, 2642};
    const double reap[] = {60, 97, 55, 207, 127, 66, 237, 82, 6090, 2540};
    for (int i = 0; i < 10; ++i)
        s.add(base[i] / reap[i]);
    EXPECT_NEAR(s.geomean(), 3.7, 0.15);
}

TEST(Samples, Percentiles)
{
    Samples s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(99), 99.01, 0.2);
}

TEST(Samples, PercentileSingleValue)
{
    Samples s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 42.0);
}

TEST(Samples, PercentileKeepsArrivalOrder)
{
    // percentile() is a const query: it must not reorder the samples
    // values() hands out, and a later add() must be seen.
    Samples s;
    for (double v : {5.0, 1.0, 4.0, 2.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
    EXPECT_EQ(s.values(), (std::vector<double>{5.0, 1.0, 4.0, 2.0}));
    s.add(9.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_EQ(s.values().back(), 9.0);
    s.clear();
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(Table, AlignsColumns)
{
    Table t({"function", "cold_ms", "warm_ms"});
    t.row().cell("helloworld").cell(232.0, 0).cell(1.0, 0);
    t.row().cell("cnn_serving").cell(1424.0, 0).cell(192.0, 0);
    std::string out = t.str();
    EXPECT_NE(out.find("function"), std::string::npos);
    EXPECT_NE(out.find("helloworld"), std::string::npos);
    EXPECT_NE(out.find("1424"), std::string::npos);
    // Header and rule plus two rows -> at least 4 lines.
    EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, IntegerCells)
{
    Table t({"a", "b"});
    t.row().cell(static_cast<std::int64_t>(7)).cell("x");
    EXPECT_NE(t.str().find("7"), std::string::npos);
}

} // namespace
} // namespace vhive

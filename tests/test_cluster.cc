/**
 * @file
 * Fleet-layer tests: deployment, routing, keep-alive scale-to-zero,
 * cold/warm accounting under Poisson and closed-loop traffic, driven
 * through scripted ParallelFleet runs.
 */

#include <gtest/gtest.h>

#include "cluster/azure_workload.hh"
#include "cluster/parallel_fleet.hh"
#include "fleet_script.hh"
#include "func/profile.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive::cluster {
namespace {

using sim::Task;
using testing::profilesOf;

ParallelFleetConfig
smallConfig(int workers = 1)
{
    ParallelFleetConfig cfg;
    cfg.workers = workers;
    cfg.keepAlive = sec(60);
    cfg.scalePeriod = sec(1);
    return cfg;
}

TEST(Fleet, DeployAndInvoke)
{
    ParallelFleet fleet(smallConfig());
    Duration e2e = 0;
    FleetStats r = fleet.run(profilesOf({"helloworld"}),
                             [&](FleetClient &c) -> Task<void> {
                                 e2e = co_await c.invoke("helloworld");
                             });
    // The population is recorded before the script runs: the first
    // invocation is a REAP prefetch cold start, fabric hops included.
    EXPECT_GT(e2e, msec(10));
    EXPECT_EQ(r.coldStarts, 1);
    EXPECT_EQ(fleet.stats("helloworld").coldStarts, 1);
    EXPECT_EQ(fleet.worker(0).orchestrator().instanceCount("helloworld"),
              1);
}

TEST(Fleet, SecondInvocationHitsWarmInstance)
{
    ParallelFleet fleet(smallConfig());
    Duration first = 0, second = 0;
    (void)fleet.run(profilesOf({"helloworld"}),
                    [&](FleetClient &c) -> Task<void> {
                        first = co_await c.invoke("helloworld");
                        second = co_await c.invoke("helloworld");
                    });
    EXPECT_EQ(fleet.stats("helloworld").warmHits, 1);
    EXPECT_LT(second, first / 10);
}

TEST(Fleet, KeepAliveScalesToZero)
{
    ParallelFleet fleet(smallConfig());
    (void)fleet.run(
        profilesOf({"helloworld"}), [&](FleetClient &c) -> Task<void> {
            (void)co_await c.invoke("helloworld");
            EXPECT_EQ(c.idleInstances("helloworld"), 1);
            // Within keep-alive: instance stays.
            co_await c.sim().delay(sec(30));
            EXPECT_EQ(c.idleInstances("helloworld"), 1);
            // Beyond keep-alive: the janitor reclaims it.
            co_await c.sim().delay(sec(45));
            EXPECT_EQ(c.idleInstances("helloworld"), 0);
            EXPECT_GT(c.stats("helloworld").scaleDowns, 0);
            // The next invocation is cold again.
            (void)co_await c.invoke("helloworld");
            EXPECT_EQ(c.stats("helloworld").coldStarts, 2);
        });
    EXPECT_EQ(fleet.worker(0).orchestrator().instanceCount("helloworld"),
              1);
}

TEST(Fleet, ConcurrentBurstScalesOut)
{
    ParallelFleet fleet(smallConfig());
    (void)fleet.run(profilesOf({"helloworld"}),
                    [&](FleetClient &c) -> Task<void> {
                        (void)co_await c.invoke("helloworld");
                        // Four simultaneous arrivals: one warm hit +
                        // three cold scale-outs.
                        co_await testing::burst(c, "helloworld", 4);
                    });
    EXPECT_EQ(fleet.worker(0).orchestrator().instanceCount("helloworld"),
              4);
    EXPECT_EQ(fleet.stats("helloworld").coldStarts, 4);
    EXPECT_EQ(fleet.stats("helloworld").warmHits, 1);
}

TEST(Fleet, MultiWorkerRouting)
{
    ParallelFleet fleet(smallConfig(3));
    (void)fleet.run(profilesOf({"pyaes"}),
                    [&](FleetClient &c) -> Task<void> {
                        // Sequential invocations reuse the warm worker.
                        for (int i = 0; i < 5; ++i)
                            (void)co_await c.invoke("pyaes");
                    });
    std::int64_t instances = 0;
    for (int w = 0; w < 3; ++w)
        instances += fleet.worker(w).orchestrator().instanceCount("pyaes");
    EXPECT_EQ(instances, 1);
    EXPECT_EQ(fleet.stats("pyaes").coldStarts, 1);
    EXPECT_EQ(fleet.stats("pyaes").warmHits, 4);
}

TEST(Fleet, RoundRobinRotationStartsAtWorkerZero)
{
    // Regression: the round-robin cursor used to pre-increment, so a
    // fresh fleet's first cold start (no warm instance anywhere)
    // always skipped worker 0.
    ParallelFleet fleet(smallConfig(2));
    (void)fleet.run(profilesOf({"helloworld"}),
                    [&](FleetClient &c) -> Task<void> {
                        (void)co_await c.invoke("helloworld");
                    });
    EXPECT_EQ(fleet.worker(0).orchestrator().instanceCount("helloworld"),
              1);
    EXPECT_EQ(fleet.worker(1).orchestrator().instanceCount("helloworld"),
              0);
}

TEST(Fleet, RoundRobinCyclesAllWorkersInOrder)
{
    ParallelFleet fleet(smallConfig(3));
    (void)fleet.run(profilesOf({"helloworld"}),
                    [&](FleetClient &c) -> Task<void> {
                        // Three simultaneous colds: the rotation must
                        // visit 0, 1, 2.
                        co_await testing::burst(c, "helloworld", 3);
                    });
    for (int w = 0; w < 3; ++w) {
        EXPECT_EQ(
            fleet.worker(w).orchestrator().instanceCount("helloworld"), 1)
            << "worker " << w;
    }
}

TEST(Fleet, PoissonTrafficSparseArrivalsAreCold)
{
    // Inter-arrival >> keep-alive: every invocation is a cold start.
    ParallelFleetConfig cfg = smallConfig();
    cfg.keepAlive = sec(10);
    ParallelFleet fleet(cfg);
    (void)fleet.run(profilesOf({"helloworld"}),
                    [&](FleetClient &c) -> Task<void> {
                        co_await testing::poisson(c, "helloworld",
                                                  sec(120), 8, 42);
                    });
    const auto &st = fleet.stats("helloworld");
    EXPECT_EQ(st.coldStarts + st.warmHits, 8);
    EXPECT_GE(st.coldStarts, 6); // overwhelmingly cold
}

TEST(Fleet, PoissonTrafficDenseArrivalsAreWarm)
{
    ParallelFleet fleet(smallConfig());
    (void)fleet.run(profilesOf({"helloworld"}),
                    [&](FleetClient &c) -> Task<void> {
                        co_await testing::poisson(c, "helloworld",
                                                  msec(500), 40, 42);
                    });
    const auto &st = fleet.stats("helloworld");
    EXPECT_EQ(st.coldStarts + st.warmHits, 40);
    EXPECT_GE(st.warmHits, 30);
}

TEST(Fleet, ClosedLoopKeepsInstancesWarm)
{
    ParallelFleet fleet(smallConfig());
    std::int64_t completed = 0;
    (void)fleet.run(profilesOf({"pyaes"}),
                    [&](FleetClient &c) -> Task<void> {
                        completed = co_await testing::closedLoop(
                            c, "pyaes", 2, msec(50), sec(5));
                    });
    EXPECT_GT(completed, 50);
    const auto &st = fleet.stats("pyaes");
    EXPECT_LE(st.coldStarts, 2); // at most one per client
    EXPECT_GT(st.warmHits, 50);
}

TEST(Fleet, LatencyStatsRecorded)
{
    ParallelFleet fleet(smallConfig());
    FleetStats r = fleet.run(profilesOf({"helloworld"}),
                             [&](FleetClient &c) -> Task<void> {
                                 for (int i = 0; i < 3; ++i)
                                     (void)co_await c.invoke("helloworld");
                             });
    const auto &s = r.e2eLatencyMs;
    EXPECT_EQ(s.count(), 3);
    EXPECT_GT(s.max(), s.min());
}

TEST(Fleet, AzureWorkloadLatenciesBitIdentical)
{
    // DES-core determinism guard: two runs of the Azure workload with
    // the same seed must produce bit-identical per-invocation
    // latencies, not just matching aggregates.
    auto run_once = [](std::uint64_t seed) {
        ParallelFleetConfig cfg;
        cfg.workers = 2;
        cfg.keepAlive = sec(90);
        cfg.workload.seed = seed;
        cfg.workload.functions = 4;
        cfg.workload.minInterarrival = sec(2);
        cfg.workload.maxInterarrival = sec(20);
        cfg.workload.horizon = sec(180);
        ParallelFleet fleet(cfg);
        return fleet.run();
    };
    auto a = run_once(0x5eed);
    auto b = run_once(0x5eed);
    ASSERT_GT(a.invocations, 10);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.coldStarts, b.coldStarts);
    // And every other fleet counter, through the shared digest.
    EXPECT_EQ(a.digest(), b.digest());
    // Bit-identical sample-by-sample.
    EXPECT_EQ(a.e2eLatencyMs.values(), b.e2eLatencyMs.values());
    // A different seed must actually change the trajectory.
    auto c = run_once(0xd1ff);
    EXPECT_NE(a.e2eLatencyMs.sum(), c.e2eLatencyMs.sum());
    EXPECT_NE(a.digest(), c.digest());
}

} // namespace
} // namespace vhive::cluster

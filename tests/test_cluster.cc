/**
 * @file
 * Cluster-layer tests: deployment, routing, keep-alive scale-to-zero,
 * cold/warm accounting under Poisson and closed-loop traffic.
 */

#include <gtest/gtest.h>

#include "cluster/azure_workload.hh"
#include "cluster/cluster.hh"
#include "cluster/traffic.hh"
#include "func/profile.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive::cluster {
namespace {

using sim::Simulation;
using sim::Task;

ClusterConfig
smallConfig(int workers = 1)
{
    ClusterConfig cfg;
    cfg.workers = workers;
    cfg.keepAlive = sec(60);
    cfg.scalePeriod = sec(1);
    return cfg;
}

template <typename Fn>
void
runScenario(Simulation &sim, Fn &&body)
{
    struct Runner {
        static Task<void>
        run(Fn &body)
        {
            co_await body();
        }
    };
    sim.spawn(Runner::run(body));
    sim.run();
}

TEST(Cluster, DeployAndInvoke)
{
    Simulation sim;
    Cluster cluster(sim, smallConfig());
    cluster.deploy(func::profileByName("helloworld"));
    Duration e2e = 0;
    runScenario(sim, [&]() -> Task<void> {
        co_await cluster.prepareAllSnapshots();
        e2e = co_await cluster.invoke("helloworld");
    });
    EXPECT_GT(e2e, msec(100)); // record-phase cold start
    EXPECT_EQ(cluster.stats("helloworld").coldStarts, 1);
    EXPECT_EQ(cluster.instanceCount("helloworld"), 1);
}

TEST(Cluster, SecondInvocationHitsWarmInstance)
{
    Simulation sim;
    Cluster cluster(sim, smallConfig());
    cluster.deploy(func::profileByName("helloworld"));
    Duration first = 0, second = 0;
    runScenario(sim, [&]() -> Task<void> {
        co_await cluster.prepareAllSnapshots();
        first = co_await cluster.invoke("helloworld");
        second = co_await cluster.invoke("helloworld");
    });
    EXPECT_EQ(cluster.stats("helloworld").warmHits, 1);
    EXPECT_LT(second, first / 10);
}

TEST(Cluster, KeepAliveScalesToZero)
{
    Simulation sim;
    Cluster cluster(sim, smallConfig());
    cluster.deploy(func::profileByName("helloworld"));
    runScenario(sim, [&]() -> Task<void> {
        co_await cluster.prepareAllSnapshots();
        cluster.startAutoscaler();
        (void)co_await cluster.invoke("helloworld");
        EXPECT_EQ(cluster.instanceCount("helloworld"), 1);
        // Within keep-alive: instance stays.
        co_await sim.delay(sec(30));
        EXPECT_EQ(cluster.instanceCount("helloworld"), 1);
        // Beyond keep-alive: janitor reclaims it.
        co_await sim.delay(sec(45));
        EXPECT_EQ(cluster.instanceCount("helloworld"), 0);
        EXPECT_GT(cluster.stats("helloworld").scaleDowns, 0);
        // Next invocation is cold again (REAP prefetch this time).
        (void)co_await cluster.invoke("helloworld");
        EXPECT_EQ(cluster.stats("helloworld").coldStarts, 2);
        cluster.stopAutoscaler();
    });
}

TEST(Cluster, ConcurrentBurstScalesOut)
{
    Simulation sim;
    Cluster cluster(sim, smallConfig());
    cluster.deploy(func::profileByName("helloworld"));
    runScenario(sim, [&]() -> Task<void> {
        co_await cluster.prepareAllSnapshots();
        // Warm-up + record.
        (void)co_await cluster.invoke("helloworld");

        // Four simultaneous arrivals: one warm hit + three cold
        // scale-outs.
        struct Arrival {
            static Task<void>
            run(Cluster &c, sim::Latch *done)
            {
                (void)co_await c.invoke("helloworld");
                done->arrive();
            }
        };
        sim::Latch done(sim, 4);
        for (int i = 0; i < 4; ++i)
            sim.spawn(Arrival::run(cluster, &done));
        co_await done.wait();
        EXPECT_EQ(cluster.instanceCount("helloworld"), 4);
    });
    EXPECT_EQ(cluster.stats("helloworld").coldStarts, 4);
    EXPECT_EQ(cluster.stats("helloworld").warmHits, 1);
}

TEST(Cluster, MultiWorkerRouting)
{
    Simulation sim;
    Cluster cluster(sim, smallConfig(3));
    cluster.deploy(func::profileByName("pyaes"));
    runScenario(sim, [&]() -> Task<void> {
        co_await cluster.prepareAllSnapshots();
        // Sequential invocations reuse the same warm worker.
        for (int i = 0; i < 5; ++i)
            (void)co_await cluster.invoke("pyaes");
        EXPECT_EQ(cluster.instanceCount("pyaes"), 1);
    });
    EXPECT_EQ(cluster.stats("pyaes").coldStarts, 1);
    EXPECT_EQ(cluster.stats("pyaes").warmHits, 4);
}

TEST(Cluster, RoundRobinRotationStartsAtWorkerZero)
{
    // Regression: the round-robin cursor used to pre-increment, so a
    // fresh cluster's first cold start (no warm instance anywhere)
    // always skipped worker 0.
    Simulation sim;
    Cluster cluster(sim, smallConfig(2));
    cluster.deploy(func::profileByName("helloworld"));
    runScenario(sim, [&]() -> Task<void> {
        co_await cluster.prepareAllSnapshots();
        (void)co_await cluster.invoke("helloworld");
    });
    EXPECT_EQ(
        cluster.worker(0).orchestrator().instanceCount("helloworld"),
        1);
    EXPECT_EQ(
        cluster.worker(1).orchestrator().instanceCount("helloworld"),
        0);
}

TEST(Cluster, RoundRobinCyclesAllWorkersInOrder)
{
    Simulation sim;
    Cluster cluster(sim, smallConfig(3));
    cluster.deploy(func::profileByName("helloworld"));
    runScenario(sim, [&]() -> Task<void> {
        co_await cluster.prepareAllSnapshots();
        struct Arrival {
            static Task<void>
            run(Cluster &c, sim::Latch *done)
            {
                (void)co_await c.invoke("helloworld");
                done->arrive();
            }
        };
        // Three simultaneous colds: the rotation must visit 0, 1, 2.
        sim::Latch done(sim, 3);
        for (int i = 0; i < 3; ++i)
            sim.spawn(Arrival::run(cluster, &done));
        co_await done.wait();
        for (int w = 0; w < 3; ++w) {
            EXPECT_EQ(cluster.worker(w).orchestrator().instanceCount(
                          "helloworld"),
                      1)
                << "worker " << w;
        }
    });
}

TEST(Cluster, PoissonTrafficSparseArrivalsAreCold)
{
    // Inter-arrival >> keep-alive: every invocation is a cold start.
    Simulation sim;
    ClusterConfig cfg = smallConfig();
    cfg.keepAlive = sec(10);
    Cluster cluster(sim, cfg);
    cluster.deploy(func::profileByName("helloworld"));
    runScenario(sim, [&]() -> Task<void> {
        co_await cluster.prepareAllSnapshots();
        cluster.startAutoscaler();
        PoissonTraffic load(sim, cluster, "helloworld", sec(120), 8,
                            42);
        co_await load.run();
        cluster.stopAutoscaler();
    });
    const auto &st = cluster.stats("helloworld");
    EXPECT_EQ(st.coldStarts + st.warmHits, 8);
    EXPECT_GE(st.coldStarts, 6); // overwhelmingly cold
}

TEST(Cluster, PoissonTrafficDenseArrivalsAreWarm)
{
    Simulation sim;
    Cluster cluster(sim, smallConfig());
    cluster.deploy(func::profileByName("helloworld"));
    runScenario(sim, [&]() -> Task<void> {
        co_await cluster.prepareAllSnapshots();
        cluster.startAutoscaler();
        PoissonTraffic load(sim, cluster, "helloworld", msec(500), 40,
                            42);
        co_await load.run();
        cluster.stopAutoscaler();
    });
    const auto &st = cluster.stats("helloworld");
    EXPECT_EQ(st.coldStarts + st.warmHits, 40);
    EXPECT_GE(st.warmHits, 30);
}

TEST(Cluster, ClosedLoopKeepsInstancesWarm)
{
    Simulation sim;
    Cluster cluster(sim, smallConfig());
    cluster.deploy(func::profileByName("pyaes"));
    runScenario(sim, [&]() -> Task<void> {
        co_await cluster.prepareAllSnapshots();
        ClosedLoopTraffic bg(sim, cluster, "pyaes", 2, msec(50), 7);
        bg.start();
        co_await sim.delay(sec(5));
        co_await bg.stopAndDrain();
        EXPECT_GT(bg.completed(), 50);
    });
    const auto &st = cluster.stats("pyaes");
    EXPECT_LE(st.coldStarts, 2); // at most one per client
    EXPECT_GT(st.warmHits, 50);
}

TEST(Cluster, LatencyStatsRecorded)
{
    Simulation sim;
    Cluster cluster(sim, smallConfig());
    cluster.deploy(func::profileByName("helloworld"));
    runScenario(sim, [&]() -> Task<void> {
        co_await cluster.prepareAllSnapshots();
        for (int i = 0; i < 3; ++i)
            (void)co_await cluster.invoke("helloworld");
    });
    const auto &s = cluster.stats("helloworld").e2eLatencyMs;
    EXPECT_EQ(s.count(), 3);
    EXPECT_GT(s.max(), s.min());
}

TEST(Cluster, AzureWorkloadLatenciesBitIdentical)
{
    // DES-core determinism guard (ahead of the planned event-queue /
    // Channel perf work): two runs of the Azure workload with the
    // same seed must produce bit-identical per-invocation latencies,
    // not just matching aggregates.
    auto run_once = [](std::uint64_t seed) {
        Simulation sim;
        ClusterConfig cfg;
        cfg.workers = 2;
        cfg.keepAlive = sec(90);
        Cluster c(sim, cfg);
        AzureWorkloadConfig wcfg;
        wcfg.seed = seed;
        wcfg.functions = 4;
        wcfg.minInterarrival = sec(2);
        wcfg.maxInterarrival = sec(20);
        wcfg.horizon = sec(180);
        AzureWorkload w(sim, c, wcfg);
        FleetStats result;
        runScenario(sim, [&]() -> Task<void> {
            result = co_await w.run();
        });
        return result;
    };
    auto a = run_once(0x5eed);
    auto b = run_once(0x5eed);
    ASSERT_GT(a.invocations, 10);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.coldStarts, b.coldStarts);
    // And every other fleet counter, through the shared digest.
    EXPECT_EQ(a.digest(), b.digest());
    // Bit-identical sample-by-sample.
    ASSERT_EQ(a.e2eLatencyMs.values().size(),
              b.e2eLatencyMs.values().size());
    for (size_t i = 0; i < a.e2eLatencyMs.values().size(); ++i) {
        EXPECT_EQ(a.e2eLatencyMs.values()[i],
                  b.e2eLatencyMs.values()[i])
            << "invocation " << i;
    }
    // A different seed must actually change the trajectory.
    auto c = run_once(0xd1ff);
    EXPECT_NE(a.e2eLatencyMs.sum(), c.e2eLatencyMs.sum());
    EXPECT_NE(a.digest(), c.digest());
}

} // namespace
} // namespace vhive::cluster

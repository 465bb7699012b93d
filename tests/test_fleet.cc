/**
 * @file
 * Fleet-control-plane tests: shared snapshot staging through the
 * SnapshotRegistry (build-once, stage-once, remote fan-out and fetch
 * fan-in), routing policy registry dispatch and placement behaviour,
 * fleet-wide stats aggregation, and the autoscaler scale-down /
 * in-flight invocation race.
 */

#include <gtest/gtest.h>

#include "cluster/azure_workload.hh"
#include "cluster/parallel_fleet.hh"
#include "cluster/routing_policy.hh"
#include "cluster/snapshot_registry.hh"
#include "core/worker.hh"
#include "fleet_script.hh"
#include "func/profile.hh"
#include "net/object_store.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive::cluster {
namespace {

using sim::Simulation;
using sim::Task;
using testing::profilesOf;

ParallelFleetConfig
sharedConfig(int workers)
{
    ParallelFleetConfig cfg;
    cfg.workers = workers;
    cfg.coldStartMode = core::ColdStartMode::TieredReap;
    cfg.sharedSnapshots = true;
    cfg.keepAlive = sec(60);
    cfg.scalePeriod = sec(1);
    return cfg;
}

/** A script that only lets staging and adoption run. */
Task<void>
stageOnly(FleetClient &)
{
    co_return;
}

std::int64_t
fleetSnapshotBuilds(ParallelFleet &f)
{
    std::int64_t n = 0;
    for (int i = 0; i < f.config().workers; ++i)
        n += f.worker(i).orchestrator().snapshotBuilds();
    return n;
}

TEST(SnapshotRegistry, BuildsOncePerFunctionRegardlessOfWorkers)
{
    for (int workers : {1, 4}) {
        ParallelFleet f(sharedConfig(workers));
        (void)f.run(profilesOf({"helloworld", "pyaes"}), stageOnly);
        // One build + one put per function, no matter the fleet size.
        EXPECT_EQ(fleetSnapshotBuilds(f), 2) << workers << " workers";
        EXPECT_EQ(f.snapshotRegistry()->totalBuilds(), 2);
        EXPECT_EQ(f.sharedObjectStore()->stats().puts, 2);
        EXPECT_GT(f.snapshotRegistry()->totalStagedBytes(), 0);
        // Every worker can cold-start both functions.
        for (int w = 0; w < workers; ++w) {
            EXPECT_TRUE(f.worker(w).orchestrator().hasRecord(
                "helloworld"));
            EXPECT_TRUE(f.worker(w).orchestrator().hasRecord("pyaes"));
        }
    }
}

TEST(SnapshotRegistry, StagesOnceUnderConcurrentStage)
{
    // Single flight: concurrent stage() calls for one function share
    // the first caller's pass instead of duplicating it.
    Simulation sim;
    core::Worker home(sim);
    net::ObjectStore store(sim, net::ObjectStoreParams::remote());
    FleetConfig cfg;
    cfg.workers = 4;
    cfg.coldStartMode = core::ColdStartMode::TieredReap;
    SnapshotRegistry reg(sim, store, cfg);
    home.orchestrator().registerFunction(
        func::profileByName("json_serdes"));

    struct Stager {
        static Task<void>
        run(SnapshotRegistry &r, const StagePayload *p, sim::Latch *done)
        {
            co_await r.stage("json_serdes", *p);
            done->arrive();
        }
    };
    StagePayload payload;
    sim.spawn([](Simulation &sim, core::Worker &home, SnapshotRegistry &reg,
                 StagePayload &payload) -> Task<void> {
        payload = co_await homeStagePayload(
            home, "json_serdes", core::ColdStartMode::TieredReap);
        sim::Latch done(sim, 4);
        for (int i = 0; i < 4; ++i)
            sim.spawn(Stager::run(reg, &payload, &done));
        co_await done.wait();
    }(sim, home, reg, payload));
    sim.run();

    EXPECT_EQ(payload.builds, 1);
    EXPECT_EQ(reg.totalBuilds(), 1);
    EXPECT_EQ(store.stats().puts, 1);
    EXPECT_TRUE(reg.isStaged("json_serdes"));
}

TEST(SnapshotRegistry, NonHomeWorkerColdStartsThroughRemoteTierOnce)
{
    // Least-loaded puts two simultaneous colds on both workers: the
    // non-home one pulls the staged artifacts through the remote tier
    // (adopted record, no re-record), and admission re-localizes them
    // so its next cold start is served from the local tiers.
    ParallelFleetConfig cfg = sharedConfig(2);
    cfg.routingPolicy = RoutingPolicyKind::LeastLoaded;
    cfg.keepAlive = sec(5);
    ParallelFleet f(cfg);
    const std::string name = "json_serdes";
    FleetStats r = f.run(profilesOf({name}),
                         [&](FleetClient &c) -> Task<void> {
                             co_await testing::burst(c, name, 2);
                             co_await c.sim().delay(sec(10));
                             co_await testing::burst(c, name, 2);
                         });
    int home = f.snapshotRegistry()->homeWorkerFor(name);
    int other = 1 - home;
    EXPECT_EQ(r.coldStarts, 4);
    EXPECT_TRUE(f.worker(other).orchestrator().artifactsLocal(name));
    EXPECT_EQ(f.worker(other).orchestrator().stats(name).recordPhases, 0);
    EXPECT_EQ(r.remoteArtifactFetches, 1);
    EXPECT_EQ(r.fetchFanIn, 1);
    Bytes remote_bytes = 0;
    for (const auto &t : r.perWorker[static_cast<std::size_t>(other)]
                             .tierHits)
        if (t.tier == "remote")
            remote_bytes = t.bytes;
    EXPECT_GT(remote_bytes, 0);
}

TEST(SnapshotRegistry, TracksFetchFanInThroughFrontEnd)
{
    ParallelFleetConfig cfg = sharedConfig(4);
    // Least-loaded spreads the concurrent colds across the fleet, so
    // several workers pull the one staged artifact.
    cfg.routingPolicy = RoutingPolicyKind::LeastLoaded;
    ParallelFleet f(cfg);
    const std::string name = "helloworld";
    FleetStats fs = f.run(profilesOf({name}),
                          [&](FleetClient &c) -> Task<void> {
                              co_await testing::burst(c, name, 4);
                          });
    const StagedArtifact &art = f.snapshotRegistry()->artifact(name);
    // The home worker kept a local copy; the other three pulled it.
    EXPECT_EQ(art.builds, 1);
    EXPECT_EQ(art.fetchFanIn(), 3);
    EXPECT_GE(art.remoteFetches, 3);
    EXPECT_EQ(fs.fetchFanIn, 3);
    EXPECT_EQ(fs.snapshotBuilds, 1);
}

TEST(RoutingPolicy, RegistryDispatchAndExtension)
{
    RoutingPolicyRegistry reg;
    EXPECT_STREQ(reg.policyFor(RoutingPolicyKind::WarmFirst).name(),
                 "warm-first");
    EXPECT_STREQ(reg.policyFor(RoutingPolicyKind::LeastLoaded).name(),
                 "least-loaded");
    EXPECT_STREQ(reg.policyFor(RoutingPolicyKind::LocalityHash).name(),
                 "locality-hash");
    EXPECT_EQ(reg.kinds().size(), 3u);

    // The extension path: swap a built-in for a custom strategy.
    struct PinToZero final : RoutingPolicy {
        const char *name() const override { return "pin-to-zero"; }
        int route(const RouteContext &) override { return 0; }
    };
    reg.registerPolicy(RoutingPolicyKind::LeastLoaded,
                       std::make_unique<PinToZero>());
    EXPECT_STREQ(reg.policyFor(RoutingPolicyKind::LeastLoaded).name(),
                 "pin-to-zero");
}

TEST(RoutingPolicy, LeastLoadedSpreadsConcurrentColds)
{
    ParallelFleetConfig cfg;
    cfg.workers = 4;
    cfg.routingPolicy = RoutingPolicyKind::LeastLoaded;
    ParallelFleet f(cfg);
    (void)f.run(profilesOf({"helloworld"}),
                [&](FleetClient &c) -> Task<void> {
                    co_await testing::burst(c, "helloworld", 4);
                });
    // One instance per worker: each arrival saw the previous
    // dispatches as in-flight load and moved on.
    for (int w = 0; w < 4; ++w) {
        EXPECT_EQ(f.worker(w).orchestrator().instanceCount("helloworld"),
                  1)
            << "worker " << w;
    }
}

TEST(RoutingPolicy, LocalityHashConcentratesColdsOnHomeWorker)
{
    ParallelFleetConfig cfg;
    cfg.workers = 4;
    cfg.routingPolicy = RoutingPolicyKind::LocalityHash;
    ParallelFleet f(cfg);
    int home = LocalityHashPolicy::homeWorker("pyaes", 4);
    (void)f.run(profilesOf({"pyaes"}), [&](FleetClient &c) -> Task<void> {
        co_await testing::burst(c, "pyaes", 3);
    });
    // All three colds landed on the hash-home worker (spill threshold
    // not reached), keeping its artifact tiers hot.
    for (int w = 0; w < 4; ++w) {
        EXPECT_EQ(f.worker(w).orchestrator().instanceCount("pyaes"),
                  w == home ? 3 : 0)
            << "worker " << w;
    }
}

TEST(RoutingPolicy, WarmFirstSelectedExplicitlyMatchesDefault)
{
    // Policy-registry dispatch determinism: routing through the
    // registry-installed warm-first policy must reproduce the default
    // config's trajectory sample-for-sample.
    auto run_once = [](bool explicit_policy) {
        ParallelFleetConfig cfg;
        cfg.workers = 3;
        cfg.keepAlive = sec(90);
        if (explicit_policy)
            cfg.routingPolicy = RoutingPolicyKind::WarmFirst;
        cfg.workload.functions = 4;
        cfg.workload.minInterarrival = sec(2);
        cfg.workload.maxInterarrival = sec(20);
        cfg.workload.horizon = sec(120);
        ParallelFleet f(cfg);
        return f.run();
    };
    auto a = run_once(false);
    auto b = run_once(true);
    ASSERT_GT(a.invocations, 5);
    EXPECT_EQ(a.e2eLatencyMs.values(), b.e2eLatencyMs.values());
}

TEST(FleetStats, AggregatesColdPercentilesTiersAndContention)
{
    ParallelFleetConfig cfg = sharedConfig(2);
    cfg.routingPolicy = RoutingPolicyKind::LeastLoaded;
    ParallelFleet f(cfg);
    FleetStats fs = f.run(
        profilesOf({"helloworld", "json_serdes"}),
        [&](FleetClient &c) -> Task<void> {
            // Four concurrent colds of one function spread across both
            // workers under least-loaded, so whichever worker is not
            // the function's staging home provably pulls through the
            // remote tier.
            sim::Latch done(c.sim(), 6);
            for (int i = 0; i < 4; ++i)
                c.sim().spawn(
                    testing::invokeThenArrive(c, "helloworld", &done));
            for (int i = 0; i < 2; ++i)
                c.sim().spawn(
                    testing::invokeThenArrive(c, "json_serdes", &done));
            co_await done.wait();
        });
    EXPECT_EQ(fs.workers, 2);
    EXPECT_GT(fs.coldE2eMs.count(), 0);
    EXPECT_EQ(fs.coldE2eMs.count() + fs.warmE2eMs.count(), 6);
    EXPECT_GE(fs.coldP99(), fs.coldP50());
    EXPECT_GT(fs.coldP50(), 0.0);
    // Cold starts flowed through the tiered chain; the fleet table
    // has a remote row with actual bytes.
    bool found_remote = false;
    for (const auto &t : fs.tierHits) {
        if (t.tier == "remote" && t.bytes > 0)
            found_remote = true;
    }
    EXPECT_TRUE(found_remote);
    // Per-worker rows sum to the fleet counters.
    std::int64_t cold_sum = 0;
    for (const auto &row : fs.perWorker)
        cold_sum += row.coldStarts;
    EXPECT_EQ(cold_sum, fs.coldE2eMs.count());
    // The shared store served every staged artifact and fetch.
    EXPECT_EQ(fs.store.puts, 2);
    EXPECT_GT(fs.store.gets, 0);
    EXPECT_GT(fs.residentBytes, 0);
}

TEST(FleetStats, DigestIgnoresPercentileQueries)
{
    // percentile() is a const query: a digest taken after it equals
    // one taken before, so any caller may read percentiles first.
    ParallelFleetConfig cfg;
    cfg.workers = 2;
    cfg.workload.functions = 4;
    cfg.workload.minInterarrival = sec(2);
    cfg.workload.maxInterarrival = sec(20);
    cfg.workload.horizon = sec(120);
    ParallelFleet f(cfg);
    FleetStats fs = f.run();
    ASSERT_GT(fs.coldE2eMs.count(), 2);
    std::uint64_t before = fs.digest();
    std::vector<double> arrival = fs.e2eLatencyMs.values();
    (void)fs.e2eLatencyMs.percentile(50);
    (void)fs.coldP99();
    (void)fs.warmE2eMs.percentile(90);
    EXPECT_EQ(fs.digest(), before);
    EXPECT_EQ(fs.e2eLatencyMs.values(), arrival);
}

TEST(Autoscaler, ScaleDownSkipsBusyInstance)
{
    // The janitor race the control plane must survive: the keep-alive
    // window expires while one instance is mid-invocation and another
    // sits idle. The idle one must be reclaimed, the busy one must
    // finish (stopping it used to trip the !busy assertion).
    ParallelFleetConfig cfg;
    cfg.workers = 1;
    cfg.keepAlive = sec(2);
    cfg.scalePeriod = msec(500);
    ParallelFleet f(cfg);
    (void)f.run(profilesOf({"lr_training"}), // ~5 s invocations
                [&](FleetClient &c) -> Task<void> {
                    // Two concurrent colds leave two warm instances.
                    co_await testing::burst(c, "lr_training", 2);
                    EXPECT_EQ(c.idleInstances("lr_training"), 2);
                    // One long warm invocation keeps one instance busy
                    // while the other idles past the keep-alive window.
                    Duration e2e = co_await c.invoke("lr_training");
                    EXPECT_GT(e2e, cfg.keepAlive);
                });
    // The idle instance was scaled down; the busy one survived its
    // invocation.
    EXPECT_EQ(f.worker(0).orchestrator().instanceCount("lr_training"), 1);
    EXPECT_GE(f.stats("lr_training").scaleDowns, 1);
}

TEST(AzureWorkloadFleet, SharedStagingColdStartsStayCorrect)
{
    // End-to-end: the Azure mix over a shared-staging fleet. Exactly
    // one build per function, and the run completes with every
    // invocation accounted.
    ParallelFleetConfig cfg = sharedConfig(4);
    cfg.keepAlive = sec(45);
    cfg.workload.functions = 6;
    cfg.workload.minInterarrival = sec(2);
    cfg.workload.maxInterarrival = sec(30);
    cfg.workload.horizon = sec(240);
    ParallelFleet f(cfg);
    FleetStats result = f.run();
    EXPECT_GT(result.invocations, 10);
    EXPECT_EQ(result.coldStarts + result.warmHits, result.invocations);
    EXPECT_EQ(f.snapshotRegistry()->totalBuilds(), 6);
    EXPECT_EQ(fleetSnapshotBuilds(f), 6);
    EXPECT_EQ(result.coldE2eMs.count(), result.coldStarts);
    EXPECT_GT(result.coldP99(), 0.0);
}

} // namespace
} // namespace vhive::cluster

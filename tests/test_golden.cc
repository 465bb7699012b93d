/**
 * @file
 * Golden-trace regression harness: every registered ColdStartMode is
 * run through the Fig. 7 per-segment breakdown on helloworld and the
 * exact (nanosecond-integer) output is diffed against a checked-in
 * baseline. Loader or pipeline refactors that shift any published
 * segment fail this test; an intentional recalibration regenerates
 * the baseline:
 *
 *   VHIVE_UPDATE_GOLDEN=1 ./test_golden
 *
 * The companion test asserts the breakdown itself is bit-identical
 * across two independent simulation runs — the determinism the golden
 * diff relies on.
 *
 * A second baseline, fleet_digests.txt, holds the FleetStats::digest()
 * of three short fixed ParallelFleet runs. Every other digest test
 * compares runs inside one build, so only this file sees a change that
 * moves every run the same way. The same VHIVE_UPDATE_GOLDEN=1 switch
 * regenerates it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/control_policy.hh"
#include "cluster/parallel_fleet.hh"
#include "cluster/routing_policy.hh"
#include "cluster/traffic.hh"
#include "core/loader/loader.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "net/object_store.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/eviction.hh"
#include "util/units.hh"

#ifndef VHIVE_GOLDEN_DIR
#error "VHIVE_GOLDEN_DIR must point at the checked-in golden files"
#endif

namespace vhive {
namespace {

using core::ColdStartMode;
using core::InvokeOptions;
using core::Worker;
using core::WorkerConfig;
using sim::Simulation;
using sim::Task;

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

void
appendBreakdown(std::ostringstream &out, const std::string &label,
                const core::LatencyBreakdown &bd)
{
    out << "mode=" << label << " loadVmm=" << bd.loadVmm
        << " fetchWs=" << bd.fetchWs << " installWs=" << bd.installWs
        << " connRestore=" << bd.connRestore
        << " processing=" << bd.processing << " total=" << bd.total
        << " prefetched=" << bd.prefetchedPages
        << " residual=" << bd.residualFaults << "\n";
    for (const auto &t : bd.tierHits) {
        out << "  tier=" << t.tier << " hits=" << t.hits
            << " misses=" << t.misses << " admitted=" << t.admissions
            << " bytes=" << t.bytes << " time=" << t.time << "\n";
    }
}

/**
 * The Fig. 7 walk over every registered mode, rendered as exact
 * integers. One flushed, forced-cold invocation per mode, after a
 * shared record phase; TieredReap is rendered twice — fresh worker
 * (full chain walk to the remote tier) and warmed (admitted local
 * copy) — since tier placement is the mode's design axis.
 */
std::string
renderBreakdowns()
{
    Simulation sim;
    WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    Worker w(sim, cfg);
    std::ostringstream out;
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        orch.flushHostCaches();
        // Shared record phase (Sec. 5.2.1).
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap);

        InvokeOptions opts;
        opts.flushPageCache = true;
        opts.forceCold = true;
        for (ColdStartMode mode : orch.loaders().modes()) {
            const char *label =
                orch.loaders().loaderFor(mode).name();
            if (mode == ColdStartMode::TieredReap ||
                mode == ColdStartMode::DedupReap) {
                // RemoteReap already staged the artifacts, so stage
                // invalidation never ran: evict explicitly to render
                // the fresh-worker chain walk (for DedupReap: the
                // chunked remote path), then the warmed one.
                orch.evictLocalArtifacts("helloworld");
                auto fresh = co_await orch.invoke("helloworld", mode,
                                                  opts);
                appendBreakdown(out, std::string(label) + "[fresh]",
                                fresh);
                auto warmed = co_await orch.invoke("helloworld", mode,
                                                   opts);
                appendBreakdown(out, std::string(label) + "[warmed]",
                                warmed);
                continue;
            }
            auto bd = co_await orch.invoke("helloworld", mode, opts);
            appendBreakdown(out, label, bd);
        }
    });
    return out.str();
}

std::string
goldenPath(const char *file)
{
    return std::string(VHIVE_GOLDEN_DIR) + "/" + file;
}

/**
 * Compare @p actual with the checked-in golden @p file, or rewrite the
 * file when VHIVE_UPDATE_GOLDEN is set.
 */
void
expectMatchesGolden(const char *file, const std::string &actual)
{
    const std::string path = goldenPath(file);
    if (std::getenv("VHIVE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        std::printf("regenerated %s\n", path.c_str());
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing " << path
        << " — generate it with VHIVE_UPDATE_GOLDEN=1 ./test_golden";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << file << " drifted from the checked-in baseline.\nIf the "
           "change is an intentional model or calibration change, "
           "regenerate\nwith VHIVE_UPDATE_GOLDEN=1 ./test_golden and "
           "commit the diff.";
}

/** Per-worker REAP on a closed-loop Azure mix, locality-hash routed. */
cluster::ParallelFleetConfig
azureReapFleet()
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 4;
    cfg.coldStartMode = ColdStartMode::Reap;
    cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
    cfg.keepAlive = sec(10);
    cfg.workload.functions = 14;
    cfg.workload.minInterarrival = sec(20);
    cfg.workload.maxInterarrival = sec(40);
    cfg.workload.horizon = sec(240);
    cfg.workload.seed = 17;
    return cfg;
}

/**
 * DedupReap through a two-shard shared store, driven open-loop by a
 * TrafficEngine population with periodic timers, a flash crowd and a
 * deploy storm.
 */
cluster::ParallelFleetConfig
burstSharedFleet()
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 6;
    cfg.coldStartMode = ColdStartMode::DedupReap;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 2;
    cfg.chunkPlacement = net::ChunkPlacementPolicy::OverlapAware;
    cfg.routingPolicy = cluster::RoutingPolicyKind::WarmFirst;
    cfg.keepAlive = sec(2);
    cluster::TrafficConfig tc;
    tc.functions = 10;
    tc.tenants = 2;
    tc.aggregateRps = 1.0;
    tc.horizon = sec(90);
    tc.seed = 23;
    tc.periodicFraction = 0.3;
    tc.periodicMinPeriod = sec(10);
    tc.periodicMaxPeriod = sec(30);
    cluster::BurstSpec crowd;
    crowd.kind = cluster::BurstKind::FlashCrowd;
    crowd.tenant = 1;
    crowd.start = sec(30);
    crowd.duration = sec(10);
    crowd.multiplier = 4.0;
    tc.bursts.push_back(crowd);
    cluster::BurstSpec storm;
    storm.kind = cluster::BurstKind::DeployStorm;
    storm.fraction = 0.3;
    storm.start = sec(60);
    storm.duration = sec(10);
    storm.multiplier = 4.0;
    tc.bursts.push_back(storm);
    cfg.traffic = tc;
    return cfg;
}

/**
 * HybridHistogram pre-warm and prefetch over shared DedupReap, with a
 * byte budget on every worker tier and on the fleet chunk index.
 */
cluster::ParallelFleetConfig
budgetControlFleet()
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 3;
    cfg.coldStartMode = ColdStartMode::DedupReap;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 2;
    cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
    cfg.keepAlive = sec(5);
    cfg.scalePeriod = sec(1);
    cfg.controlPolicy = cluster::ControlPolicyKind::HybridHistogram;
    core::ReapOptions &reap = cfg.worker.reap;
    reap.pageCacheBudget = 24 * kMiB;
    reap.chunkCacheBudget = 24 * kMiB;
    reap.ssdBudget = 8 * kMiB;
    reap.evictionPolicy = storage::EvictionPolicyKind::SharingAware;
    cfg.registryChunkBudget = 160 * kMiB;
    cfg.registryEvictionPolicy = storage::EvictionPolicyKind::SharingAware;
    cluster::TrafficConfig tc;
    tc.functions = 8;
    tc.tenants = 2;
    tc.aggregateRps = 0.5;
    tc.horizon = sec(360);
    tc.seed = 31;
    tc.periodicFraction = 0.5;
    tc.periodicMinPeriod = sec(40);
    tc.periodicMaxPeriod = sec(90);
    cfg.traffic = tc;
    return cfg;
}

/**
 * One line per fixed run: a few readable counters, then the digest of
 * every FleetStats field.
 */
std::string
renderFleetDigests()
{
    const std::vector<std::pair<const char *,
                                cluster::ParallelFleetConfig>>
        runs = {{"azure-reap", azureReapFleet()},
                {"burst-shared", burstSharedFleet()},
                {"budget-control", budgetControlFleet()}};
    std::ostringstream out;
    for (const auto &[name, cfg] : runs) {
        cluster::ParallelFleet fleet(cfg);
        cluster::FleetStats fs = fleet.run();
        out << name << " invocations=" << fs.invocations
            << " coldStarts=" << fs.coldStarts
            << " preWarms=" << fs.preWarms
            << " bgPrefetches=" << fs.bgPrefetches
            << " chunkEvictions=" << fs.workerChunkBudgetEvictions
            << " ssdEvictions=" << fs.ssdEvictions << " digest=0x"
            << std::hex << std::setw(16) << std::setfill('0')
            << fs.digest() << std::dec << std::setfill(' ') << "\n";
    }
    return out.str();
}

TEST(GoldenTrace, Fig7BreakdownMatchesCheckedInBaseline)
{
    expectMatchesGolden("fig7_breakdown.txt", renderBreakdowns());
}

TEST(GoldenTrace, BreakdownBitIdenticalAcrossRuns)
{
    // Two independent simulations must render byte-identical output;
    // this is the determinism the golden diff above stands on.
    EXPECT_EQ(renderBreakdowns(), renderBreakdowns());
}

TEST(GoldenTrace, FleetDigestsMatchCheckedInBaseline)
{
    expectMatchesGolden("fleet_digests.txt", renderFleetDigests());
}

} // namespace
} // namespace vhive

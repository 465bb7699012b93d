/**
 * @file
 * Tests for the extension features: remote/disaggregated snapshot
 * storage (Sec. 7.1), the rootfs/container-image boot path (Sec. 6.1),
 * layout re-randomization (Sec. 7.3), fleet memory accounting
 * (Sec. 4.3), the Azure-style workload generator (Sec. 2.1), and CSV
 * artifact export.
 */

#include <gtest/gtest.h>

#include "cluster/azure_workload.hh"
#include "cluster/parallel_fleet.hh"
#include "core/loader/loader.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "net/object_store.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "storage/disk.hh"
#include "util/table.hh"
#include "util/units.hh"

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

TEST(RemoteStorage, SmallReadsPayRoundTrips)
{
    Simulation sim;
    storage::DiskDevice remote(sim,
                               storage::DiskParams::remoteStorage());
    Duration took = 0;
    struct T {
        static Task<void>
        run(Simulation &sim, storage::DiskDevice &d, Duration &out)
        {
            Time t0 = sim.now();
            co_await d.read(0, 4 * kKiB);
            out = sim.now() - t0;
        }
    };
    sim.spawn(T::run(sim, remote, took));
    sim.run();
    // Network round trip dominates: far slower than the local SSD's
    // ~123 us.
    EXPECT_GT(took, usec(300));
}

TEST(RemoteStorage, BulkTransfersStreamWell)
{
    Simulation sim;
    storage::DiskDevice remote(sim,
                               storage::DiskParams::remoteStorage());
    Duration took = 0;
    struct T {
        static Task<void>
        run(Simulation &sim, storage::DiskDevice &d, Duration &out)
        {
            Time t0 = sim.now();
            co_await d.read(0, 8 * kMiB);
            out = sim.now() - t0;
        }
    };
    sim.spawn(T::run(sim, remote, took));
    sim.run();
    double mb_s = mbps(8 * kMiB, took);
    EXPECT_GT(mb_s, 300.0); // bulk transfer amortizes the RTT
}

TEST(RemoteStorage, ReapAdvantageGrowsRemotely)
{
    auto speedup = [](storage::DiskParams disk) {
        Simulation sim;
        WorkerConfig cfg;
        cfg.disk = disk;
        Worker w(sim, cfg);
        double out = 0;
        runScenario(sim, [&]() -> Task<void> {
            auto &orch = w.orchestrator();
            orch.registerFunction(func::profileByName("pyaes"));
            co_await orch.prepareSnapshot("pyaes");
            orch.flushHostCaches();
            (void)co_await orch.invoke("pyaes", ColdStartMode::Reap);
            InvokeOptions opts;
            opts.flushPageCache = true;
            opts.forceCold = true;
            auto v = co_await orch.invoke(
                "pyaes", ColdStartMode::VanillaSnapshot, opts);
            auto r =
                co_await orch.invoke("pyaes", ColdStartMode::Reap,
                                     opts);
            out = static_cast<double>(v.total) /
                  static_cast<double>(r.total);
        });
        return out;
    };
    double local = speedup(storage::DiskParams::ssd());
    double remote = speedup(storage::DiskParams::remoteStorage());
    EXPECT_GT(remote, local); // Sec. 7.1
}

TEST(RemoteStorage, ReapRemoteIsAFirstClassMode)
{
    // Sec. 7.1 as a registered SnapshotLoader: snapshot artifacts live
    // in an S3-like object store and arrive as bulk GETs.
    Simulation sim;
    WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    Worker w(sim, cfg);
    core::LatencyBreakdown local, remote;
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("pyaes"));
        co_await orch.prepareSnapshot("pyaes");
        orch.flushHostCaches();
        (void)co_await orch.invoke("pyaes", ColdStartMode::Reap);

        InvokeOptions opts;
        opts.flushPageCache = true;
        opts.forceCold = true;
        local =
            co_await orch.invoke("pyaes", ColdStartMode::Reap, opts);
        std::int64_t gets0 = w.objectStore().stats().gets;
        remote = co_await orch.invoke(
            "pyaes", ColdStartMode::RemoteReap, opts);
        // VMM state + WS file each arrived as an object GET.
        EXPECT_GE(w.objectStore().stats().gets - gets0, 2);
    });
    EXPECT_TRUE(remote.cold);
    EXPECT_GT(remote.fetchWs, 0);
    // Same prefetch set as local REAP; eager install still eliminates
    // nearly all faults.
    EXPECT_EQ(remote.prefetchedPages, local.prefetchedPages);
    EXPECT_LT(remote.residualFaults, remote.prefetchedPages / 10);
    // The network costs something over the local O_DIRECT read, but
    // the bulk transfer keeps it the same order of magnitude.
    EXPECT_GT(remote.total, local.total);
    EXPECT_LT(remote.total, 3 * local.total);
}

TEST(RemoteStorage, SnapshotArtifactsAreStagedOnce)
{
    Simulation sim;
    WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    Worker w(sim, cfg);
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        orch.flushHostCaches();
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap);

        InvokeOptions opts;
        opts.flushPageCache = true;
        opts.forceCold = true;
        (void)co_await orch.invoke("helloworld",
                                   ColdStartMode::RemoteReap, opts);
        EXPECT_EQ(w.objectStore().stats().puts, 1);
        (void)co_await orch.invoke("helloworld",
                                   ColdStartMode::RemoteReap, opts);
        // The upload is one-time; later cold starts only GET.
        EXPECT_EQ(w.objectStore().stats().puts, 1);

        // Invalidating the record forces a re-record and a re-stage.
        orch.invalidateRecord("helloworld");
        orch.flushHostCaches();
        (void)co_await orch.invoke("helloworld",
                                   ColdStartMode::RemoteReap, opts);
        (void)co_await orch.invoke("helloworld",
                                   ColdStartMode::RemoteReap, opts);
        EXPECT_EQ(w.objectStore().stats().puts, 2);
    });
}

/**
 * Helper: the tier row for @p label. A missing row is an EXPECT
 * failure and yields a zeroed row, so chain-shape regressions fail
 * with context instead of crashing the test.
 */
core::TierBreakdown
tierRow(const core::LatencyBreakdown &bd, const std::string &label)
{
    for (const auto &t : bd.tierHits)
        if (t.tier == label)
            return t;
    ADD_FAILURE() << "no tier row labelled '" << label << "'";
    return core::TierBreakdown{label};
}

TEST(TieredReap, FallbackChainWalksDownThenWarmsUp)
{
    // The tentpole scenario: a fresh worker's first tiered cold start
    // is served by the remote tier; admission lands the bytes in the
    // page cache (with writeback to SSD), so an unflushed cold hits
    // the page cache and a flushed cold falls through to the SSD
    // copy. O_DIRECT SSD serves never pollute the cache — only
    // admission does.
    Simulation sim;
    WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    Worker w(sim, cfg);
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("pyaes"));
        co_await orch.prepareSnapshot("pyaes");
        orch.flushHostCaches();
        (void)co_await orch.invoke("pyaes", ColdStartMode::Reap);

        InvokeOptions opts;
        opts.flushPageCache = true;
        opts.forceCold = true;

        // Cold 1: staging modelled a fresh worker, so every window
        // fell through page-cache and SSD to the remote tier.
        auto first = co_await orch.invoke(
            "pyaes", ColdStartMode::TieredReap, opts);
        EXPECT_EQ(first.tierHits.size(), 3u);
        auto remote = tierRow(first, "remote");
        auto ssd = tierRow(first, "local-ssd");
        auto cache = tierRow(first, "page-cache");
        EXPECT_GT(remote.hits, 0);
        EXPECT_EQ(ssd.hits, 0);
        EXPECT_EQ(cache.hits, 0);
        EXPECT_EQ(ssd.misses, remote.hits);
        EXPECT_EQ(cache.misses, remote.hits);
        // Admission populated the SSD tier with everything fetched.
        EXPECT_EQ(ssd.admissions, remote.hits);
        EXPECT_GT(remote.bytes, 0);

        // Cold 2 (no flush): admission left the bytes cache-resident,
        // so the page-cache tier serves without touching the store.
        std::int64_t gets1 = w.objectStore().stats().gets;
        InvokeOptions warmCache;
        warmCache.forceCold = true;
        auto second = co_await orch.invoke(
            "pyaes", ColdStartMode::TieredReap, warmCache);
        EXPECT_GT(tierRow(second, "page-cache").hits, 0);
        EXPECT_EQ(tierRow(second, "local-ssd").hits, 0);
        EXPECT_EQ(tierRow(second, "remote").hits, 0);
        EXPECT_EQ(w.objectStore().stats().gets, gets1);

        // Cold 3 (cache flushed): the written-back SSD copy serves.
        auto third = co_await orch.invoke(
            "pyaes", ColdStartMode::TieredReap, opts);
        EXPECT_GT(tierRow(third, "local-ssd").hits, 0);
        EXPECT_EQ(tierRow(third, "remote").hits, 0);
        EXPECT_EQ(w.objectStore().stats().gets, gets1);

        // Each step down the hierarchy costs more than the one above.
        EXPECT_LT(second.fetchWs, third.fetchWs);
        EXPECT_LT(third.fetchWs, first.fetchWs);
    });
}

TEST(TieredReap, EvictLocalArtifactsFallsBackToRemote)
{
    Simulation sim;
    WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    Worker w(sim, cfg);
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        orch.flushHostCaches();
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap);

        InvokeOptions opts;
        opts.flushPageCache = true;
        opts.forceCold = true;
        (void)co_await orch.invoke("helloworld",
                                   ColdStartMode::TieredReap, opts);
        auto warm = co_await orch.invoke(
            "helloworld", ColdStartMode::TieredReap, opts);
        EXPECT_EQ(tierRow(warm, "remote").hits, 0);

        // Artifact GC: the next cold start walks to the remote tier
        // again and re-admits.
        orch.evictLocalArtifacts("helloworld");
        auto evicted = co_await orch.invoke(
            "helloworld", ColdStartMode::TieredReap, opts);
        EXPECT_GT(tierRow(evicted, "remote").hits, 0);
        auto readmitted = co_await orch.invoke(
            "helloworld", ColdStartMode::TieredReap, opts);
        EXPECT_EQ(tierRow(readmitted, "remote").hits, 0);
        EXPECT_GT(tierRow(readmitted, "local-ssd").hits, 0);
    });
}

TEST(TieredReap, CacheServedFetchDoesNotResurrectLocalCopy)
{
    // Regression: after evicting the local artifacts, a tiered fetch
    // served entirely by a (re-warmed) page cache must NOT mark the
    // SSD copy valid — only full remote admission may. Otherwise the
    // next flushed cold start reads an SSD copy the model says was
    // dropped.
    Simulation sim;
    WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    Worker w(sim, cfg);
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        orch.flushHostCaches();
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap);

        InvokeOptions opts;
        opts.flushPageCache = true;
        opts.forceCold = true;
        (void)co_await orch.invoke("helloworld",
                                   ColdStartMode::TieredReap, opts);

        // Drop the local copy, then re-warm only the page cache via a
        // buffered (WsFileCached) cold start.
        orch.evictLocalArtifacts("helloworld");
        InvokeOptions noflush;
        noflush.forceCold = true;
        (void)co_await orch.invoke("helloworld",
                                   ColdStartMode::WsFileCached,
                                   noflush);

        // Cache-served tiered fetch: proves nothing about the SSD.
        auto cached = co_await orch.invoke(
            "helloworld", ColdStartMode::TieredReap, noflush);
        EXPECT_GT(tierRow(cached, "page-cache").hits, 0);
        EXPECT_EQ(tierRow(cached, "remote").hits, 0);

        // The next flushed cold must walk to the remote tier — the
        // eviction is still in force.
        auto flushed = co_await orch.invoke(
            "helloworld", ColdStartMode::TieredReap, opts);
        EXPECT_EQ(tierRow(flushed, "local-ssd").hits, 0);
        EXPECT_GT(tierRow(flushed, "remote").hits, 0);
    });
}

TEST(TieredReap, StagesArtifactsOnceLikeRemoteReap)
{
    Simulation sim;
    WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    Worker w(sim, cfg);
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        orch.flushHostCaches();
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap);

        InvokeOptions opts;
        opts.flushPageCache = true;
        opts.forceCold = true;
        (void)co_await orch.invoke("helloworld",
                                   ColdStartMode::TieredReap, opts);
        EXPECT_EQ(w.objectStore().stats().puts, 1);
        (void)co_await orch.invoke("helloworld",
                                   ColdStartMode::TieredReap, opts);
        EXPECT_EQ(w.objectStore().stats().puts, 1);
        // The windowed remote fetch arrived as ranged GETs.
        EXPECT_GT(w.objectStore().stats().rangedGets, 1);
    });
}

TEST(LoaderRegistry, CustomLoaderIsDispatched)
{
    // The registry is the extension point: swapping a loader changes
    // cold-start behavior with no orchestrator involvement.
    class StubLoader final : public core::loader::SnapshotLoader {
      public:
        explicit StubLoader(int *calls) : calls(calls) {}
        const char *name() const override { return "stub"; }
        bool needsSnapshot() const override { return false; }
        sim::Task<core::LatencyBreakdown>
        load(core::loader::LoadContext ctx) override
        {
            ++*calls;
            core::LatencyBreakdown bd;
            Time t0 = ctx.sim.now();
            co_await ctx.sim.delay(msec(1));
            bd.total = ctx.sim.now() - t0;
            co_return bd;
        }

      private:
        int *calls;
    };

    Simulation sim;
    Worker w(sim);
    int calls = 0;
    auto &orch = w.orchestrator();
    EXPECT_STREQ(
        orch.loaders().loaderFor(ColdStartMode::BootFromScratch)
            .name(),
        "boot");
    orch.loaders().registerLoader(ColdStartMode::BootFromScratch,
                                  std::make_unique<StubLoader>(&calls));
    orch.registerFunction(func::profileByName("helloworld"));
    core::LatencyBreakdown bd;
    runScenario(sim, [&]() -> Task<void> {
        bd = co_await orch.invoke("helloworld",
                                  ColdStartMode::BootFromScratch);
    });
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(bd.cold);
    EXPECT_EQ(bd.total, msec(1));
    EXPECT_EQ(orch.stats("helloworld").coldInvocations, 1);
}

TEST(LoaderRegistry, AllModesAreRegistered)
{
    core::loader::LoaderRegistry reg;
    const ColdStartMode all[] = {
        ColdStartMode::BootFromScratch,
        ColdStartMode::VanillaSnapshot,
        ColdStartMode::ParallelPageFaults,
        ColdStartMode::WsFileCached,
        ColdStartMode::Reap,
        ColdStartMode::RemoteReap,
        ColdStartMode::TieredReap,
        ColdStartMode::DedupReap,
        ColdStartMode::BackgroundWarm,
    };
    EXPECT_EQ(reg.modes().size(), 9u);
    for (ColdStartMode m : all) {
        ASSERT_NE(reg.find(m), nullptr);
        // Registry names agree with the mode-name table.
        EXPECT_STREQ(reg.find(m)->name(), coldStartModeName(m));
    }
    EXPECT_STREQ(reg.recordLoader().name(), "record");
}

TEST(Rootfs, BootReadsContainerImage)
{
    Simulation sim;
    Worker w(sim);
    Bytes read_before = 0, read_after = 0;
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("helloworld"));
        read_before = w.disk().stats().bytesRead;
        (void)co_await orch.invoke(
            "helloworld", ColdStartMode::BootFromScratch);
        read_after = w.disk().stats().bytesRead;
    });
    const auto &p = func::profileByName("helloworld");
    // Boot pulled (at least) the configured rootfs slice from disk.
    EXPECT_GE(read_after - read_before, p.rootfsBootRead);
    // And the rootfs file exists with the image's size.
    auto f = w.fileStore().lookup("helloworld/rootfs");
    ASSERT_NE(f, storage::kInvalidFile);
    EXPECT_EQ(w.fileStore().fileSize(f), p.rootfsImage);
}

TEST(Rootfs, FrameworkImagesAreLarger)
{
    const auto &hello = func::profileByName("helloworld");
    const auto &cnn = func::profileByName("cnn_serving");
    const auto &video = func::profileByName("video_processing");
    EXPECT_GT(cnn.rootfsImage, hello.rootfsImage);
    EXPECT_GT(video.rootfsImage, hello.rootfsImage); // Debian image
}

TEST(Rerandomize, AddsInstallCostButPreservesWin)
{
    auto run = [](bool rerandomize) {
        Simulation sim;
        WorkerConfig cfg;
        cfg.reap.rerandomizeLayout = rerandomize;
        Worker w(sim, cfg);
        struct Out {
            Duration reap_total = 0;
            Duration vanilla_total = 0;
            std::int64_t rerands = 0;
        } out;
        runScenario(sim, [&]() -> Task<void> {
            auto &orch = w.orchestrator();
            orch.registerFunction(func::profileByName("helloworld"));
            co_await orch.prepareSnapshot("helloworld");
            orch.flushHostCaches();
            (void)co_await orch.invoke("helloworld",
                                       ColdStartMode::Reap);
            InvokeOptions opts;
            opts.flushPageCache = true;
            opts.forceCold = true;
            auto v = co_await orch.invoke(
                "helloworld", ColdStartMode::VanillaSnapshot, opts);
            auto r = co_await orch.invoke("helloworld",
                                          ColdStartMode::Reap, opts);
            out.vanilla_total = v.total;
            out.reap_total = r.total;
            out.rerands =
                orch.stats("helloworld").layoutRerandomizations;
        });
        return out;
    };
    auto plain = run(false);
    auto secured = run(true);
    EXPECT_EQ(plain.rerands, 0);
    EXPECT_GT(secured.rerands, 0);
    // Security costs a little...
    EXPECT_GT(secured.reap_total, plain.reap_total);
    // ...but well under the vanilla baseline (mitigation is cheap).
    EXPECT_LT(secured.reap_total, secured.vanilla_total / 2);
}

/** A one-worker fleet's result after @p invocations of helloworld. */
cluster::FleetStats
helloFleet(cluster::ParallelFleetConfig cfg, int invocations)
{
    cluster::ParallelFleet fleet(cfg);
    return fleet.run({func::profileByName("helloworld")},
                     [&](cluster::FleetClient &c) -> Task<void> {
                         for (int i = 0; i < invocations; ++i)
                             (void)co_await c.invoke("helloworld");
                     });
}

TEST(MemoryAccounting, ResidentBytesTracksInstances)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 1;
    // Staged and recorded, but no instance kept: nothing resident.
    EXPECT_EQ(helloFleet(cfg, 0).residentBytes, 0);
    // One kept-warm instance holds its working set.
    cluster::FleetStats one = helloFleet(cfg, 1);
    EXPECT_GT(one.residentBytes, 8 * kMiB);
    EXPECT_LT(one.residentBytes, 40 * kMiB);
}

cluster::ParallelFleetConfig
azureFleet(int functions, Duration min_gap, Duration max_gap,
           Duration horizon)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 1;
    cfg.workload.functions = functions;
    cfg.workload.minInterarrival = min_gap;
    cfg.workload.maxInterarrival = max_gap;
    cfg.workload.horizon = horizon;
    return cfg;
}

TEST(AzureMix, RunsAndAccounts)
{
    cluster::ParallelFleetConfig cfg =
        azureFleet(4, sec(5), sec(40), sec(240));
    cfg.keepAlive = sec(120);
    cfg.coldStartMode = ColdStartMode::Reap;
    cluster::ParallelFleet fleet(cfg);
    ASSERT_EQ(fleet.workloadProfiles().size(), 4u);
    cluster::FleetStats result = fleet.run();

    EXPECT_GT(result.invocations, 5);
    EXPECT_EQ(result.coldStarts + result.warmHits,
              result.invocations);
    EXPECT_EQ(result.e2eLatencyMs.count(), result.invocations);
    EXPECT_GT(result.residentByteSec, 0.0);
    // Pre-recording keeps measured colds on the fast path: even the
    // worst cold (image_rotate-class, ~260 ms REAP) stays far below
    // its vanilla cold (~760 ms).
    EXPECT_LT(result.e2eLatencyMs.max(), 400.0);
}

TEST(AzureMix, DeterministicAcrossRuns)
{
    auto run_once = [] {
        return cluster::ParallelFleet(
                   azureFleet(3, sec(5), sec(30), sec(120)))
            .run();
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_GT(a.invocations, 0);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.coldStarts, b.coldStarts);
    EXPECT_DOUBLE_EQ(a.e2eLatencyMs.sum(), b.e2eLatencyMs.sum());
    EXPECT_EQ(a.digest(), b.digest());
}

Task<void>
helloBurst(cluster::FleetClient &c, int n)
{
    struct Arrival {
        static Task<void>
        run(cluster::FleetClient &c, sim::Latch *done)
        {
            (void)co_await c.invoke("helloworld");
            done->arrive();
        }
    };
    sim::Latch done(c.sim(), n);
    for (int i = 0; i < n; ++i)
        c.sim().spawn(Arrival::run(c, &done));
    co_await done.wait();
}

TEST(QueueProxy, BoundsConcurrencyAndQueues)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 1;
    cfg.maxConcurrencyPerFunction = 2;
    cluster::ParallelFleet fleet(cfg);
    (void)fleet.run({func::profileByName("helloworld")},
                    [](cluster::FleetClient &c) -> Task<void> {
                        (void)co_await c.invoke("helloworld");
                        co_await helloBurst(c, 6);
                    });
    // At most the concurrency limit of instances ever existed.
    EXPECT_LE(fleet.worker(0).orchestrator().instanceCount("helloworld"),
              2);
    const auto &st = fleet.stats("helloworld");
    // Some arrivals had to queue behind the two in-flight slots.
    EXPECT_GT(st.queueDelayMs.max(), 0.0);
    EXPECT_EQ(st.queueDelayMs.count(), 7); // all admissions sampled
}

TEST(QueueProxy, UnlimitedModeNeverQueues)
{
    cluster::ParallelFleetConfig cfg; // default: unlimited
    cfg.workers = 1;
    cluster::ParallelFleet fleet(cfg);
    (void)fleet.run({func::profileByName("helloworld")},
                    [](cluster::FleetClient &c) {
                        return helloBurst(c, 6);
                    });
    EXPECT_EQ(fleet.stats("helloworld").queueDelayMs.count(), 0);
    // Nothing held the burst back: it scaled out to six instances.
    EXPECT_EQ(fleet.worker(0).orchestrator().instanceCount("helloworld"),
              6);
}

TEST(MemoryCapacity, EvictsLruIdleInstance)
{
    Simulation sim;
    WorkerConfig cfg;
    // Room for roughly one small instance's working set.
    cfg.instanceMemoryCapacity = 16 * kMiB;
    Worker w(sim, cfg);
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("helloworld"));
        orch.registerFunction(func::profileByName("pyaes"));
        co_await orch.prepareSnapshot("helloworld");
        co_await orch.prepareSnapshot("pyaes");

        InvokeOptions keep;
        keep.keepWarm = true;
        keep.flushPageCache = true;
        (void)co_await orch.invoke("helloworld",
                                   ColdStartMode::VanillaSnapshot,
                                   keep);
        EXPECT_EQ(orch.instanceCount("helloworld"), 1);

        // Starting pyaes exceeds the budget: helloworld (idle LRU)
        // must be deallocated first.
        (void)co_await orch.invoke(
            "pyaes", ColdStartMode::VanillaSnapshot, keep);
        EXPECT_EQ(orch.instanceCount("helloworld"), 0);
        EXPECT_EQ(orch.instanceCount("pyaes"), 1);
        EXPECT_EQ(orch.capacityEvictions(), 1);
        co_await orch.stopAllInstances("pyaes");
    });
}

TEST(MemoryCapacity, BusyInstancesAreNotEvicted)
{
    Simulation sim;
    WorkerConfig cfg;
    cfg.instanceMemoryCapacity = 24 * kMiB;
    Worker w(sim, cfg);
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("cnn_serving"));
        orch.registerFunction(func::profileByName("pyaes"));
        co_await orch.prepareSnapshot("cnn_serving");
        co_await orch.prepareSnapshot("pyaes");

        // cnn_serving runs for ~200 ms; launch it and immediately
        // cold-start pyaes while it is busy.
        struct Long {
            static Task<void>
            run(core::Orchestrator &orch, sim::Latch *done)
            {
                InvokeOptions keep;
                keep.keepWarm = true;
                (void)co_await orch.invoke(
                    "cnn_serving", ColdStartMode::VanillaSnapshot,
                    keep);
                done->arrive();
            }
        };
        sim::Latch done(sim, 1);
        sim.spawn(Long::run(orch, &done));
        co_await sim.delay(msec(50)); // cnn is mid-flight
        (void)co_await orch.invoke("pyaes",
                                   ColdStartMode::VanillaSnapshot);
        // The busy cnn instance survived; the system ran over budget
        // rather than evicting it.
        EXPECT_EQ(orch.instanceCount("cnn_serving"), 1);
        co_await done.wait();
        co_await orch.stopAllInstances("cnn_serving");
    });
}

TEST(Csv, EscapesAndFormats)
{
    Table t({"name", "value"});
    t.row().cell("plain").cell(static_cast<std::int64_t>(7));
    t.row().cell("with,comma").cell("quote\"inside");
    std::string csv = t.csv();
    EXPECT_NE(csv.find("name,value\n"), std::string::npos);
    EXPECT_NE(csv.find("plain,7\n"), std::string::npos);
    EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

} // namespace
} // namespace vhive

/**
 * @file
 * Core (REAP + orchestrator) tests: trace-file codec round trips, the
 * record phase, prefetch-phase fault elimination, mode ordering
 * (vanilla > parallel-PF > WS-file > REAP), warm routing, instance
 * lifecycle, and the Sec. 7.2 adaptive re-record policy.
 */

#include <gtest/gtest.h>

#include "core/options.hh"
#include "core/orchestrator.hh"
#include "core/worker.hh"
#include "core/ws_file.hh"
#include "func/profile.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive::core {
namespace {

using sim::Simulation;
using sim::Task;
using Opts = InvokeOptions;

/** Run a single orchestrator task to completion. */
template <typename Fn>
void
runScenario(Worker &w, Simulation &sim, Fn &&body)
{
    struct Runner {
        static Task<void>
        run(Worker &w, Fn &body)
        {
            co_await body(w.orchestrator());
        }
    };
    sim.spawn(Runner::run(w, body));
    sim.run();
}

TEST(TraceCodec, RoundTrip)
{
    WorkingSetRecord r;
    r.pages = {0, 512, 513, 514, 1000, 999, 70000};
    auto bytes = TraceFileCodec::encode(r);
    EXPECT_EQ(static_cast<Bytes>(bytes.size()),
              TraceFileCodec::encodedSize(r));
    auto decoded = TraceFileCodec::decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->pages, r.pages);
}

TEST(TraceCodec, EmptyRecord)
{
    WorkingSetRecord r;
    auto bytes = TraceFileCodec::encode(r);
    auto decoded = TraceFileCodec::decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->pages.empty());
}

TEST(TraceCodec, DetectsCorruption)
{
    WorkingSetRecord r;
    for (std::int64_t i = 0; i < 1000; ++i)
        r.pages.push_back(i * 3);
    auto bytes = TraceFileCodec::encode(r);
    // Flip a payload byte.
    auto corrupted = bytes;
    corrupted[bytes.size() / 2] ^= 0x40;
    EXPECT_FALSE(TraceFileCodec::decode(corrupted).has_value());
    // Truncate.
    auto truncated = bytes;
    truncated.resize(truncated.size() - 5);
    EXPECT_FALSE(TraceFileCodec::decode(truncated).has_value());
    // Bad magic.
    auto bad_magic = bytes;
    bad_magic[0] = 'X';
    EXPECT_FALSE(TraceFileCodec::decode(bad_magic).has_value());
}

namespace {

/** Recompute and overwrite the trailing CRC of an encoded buffer. */
void
refreshCrc(std::vector<std::uint8_t> &bytes)
{
    ASSERT_GE(bytes.size(), 4u);
    std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
    for (int i = 0; i < 4; ++i)
        bytes[bytes.size() - 4 + static_cast<size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));
}

} // namespace

TEST(TraceCodec, RejectsBadMagic)
{
    WorkingSetRecord r;
    r.pages = {1, 2, 3};
    auto bytes = TraceFileCodec::encode(r);
    // Corrupt the magic but keep the CRC valid, so the rejection can
    // only come from the magic check itself.
    bytes[0] = 'X';
    refreshCrc(bytes);
    EXPECT_FALSE(TraceFileCodec::decode(bytes).has_value());
}

TEST(TraceCodec, RejectsBadVersion)
{
    WorkingSetRecord r;
    r.pages = {1, 2, 3};
    auto bytes = TraceFileCodec::encode(r);
    // The format version is the trailing magic byte ('1'). Bump it
    // with a valid CRC: still rejected.
    bytes[7] = '2';
    refreshCrc(bytes);
    EXPECT_FALSE(TraceFileCodec::decode(bytes).has_value());
}

TEST(TraceCodec, RejectsCrcMismatch)
{
    WorkingSetRecord r;
    r.pages = {4, 9, 12, 40};
    auto bytes = TraceFileCodec::encode(r);
    bytes.back() ^= 0xff; // corrupt the stored CRC itself
    EXPECT_FALSE(TraceFileCodec::decode(bytes).has_value());
}

TEST(TraceCodec, RejectsTruncatedVarintStream)
{
    // A buffer whose header promises more varints than the payload
    // carries, with a *valid* CRC over the truncated bytes: decode
    // must fail on the varint stream, not the checksum.
    WorkingSetRecord r;
    r.pages = {100, 200, 300, 400, 500};
    auto bytes = TraceFileCodec::encode(r);
    // Drop two payload bytes (keeping the 4 CRC bytes at the end).
    bytes.erase(bytes.end() - 6, bytes.end() - 4);
    refreshCrc(bytes);
    EXPECT_FALSE(TraceFileCodec::decode(bytes).has_value());
}

TEST(TraceCodec, RejectsTrailingGarbage)
{
    // Extra payload bytes after the promised varints (valid CRC):
    // the decoder must notice the stream did not end at the CRC.
    WorkingSetRecord r;
    r.pages = {7, 8, 9};
    auto bytes = TraceFileCodec::encode(r);
    bytes.insert(bytes.end() - 4, std::uint8_t{0x00});
    refreshCrc(bytes);
    EXPECT_FALSE(TraceFileCodec::decode(bytes).has_value());
}

TEST(TraceCodec, RejectsNegativePageDelta)
{
    // A delta stream that walks below page 0 is corrupt even when the
    // CRC and framing are intact.
    std::vector<std::uint8_t> bytes = {'R', 'E', 'A', 'P',
                                       'T', 'R', 'C', '1'};
    bytes.push_back(1); // count = 1
    // zigzag(-1) = 1: first (absolute) page would be -1.
    bytes.push_back(1);
    bytes.resize(bytes.size() + 4);
    refreshCrc(bytes);
    EXPECT_FALSE(TraceFileCodec::decode(bytes).has_value());
}

TEST(TraceCodec, RejectsTooShortBuffer)
{
    std::vector<std::uint8_t> tiny = {'R', 'E', 'A', 'P'};
    EXPECT_FALSE(TraceFileCodec::decode(tiny).has_value());
    EXPECT_FALSE(
        TraceFileCodec::decode(std::vector<std::uint8_t>{})
            .has_value());
}

TEST(TraceCodec, DeltaEncodingIsCompact)
{
    // Mostly-contiguous pages should encode in ~1-2 bytes per entry.
    WorkingSetRecord r;
    std::int64_t page = 1000;
    for (int i = 0; i < 4096; ++i) {
        r.pages.push_back(page);
        page += (i % 3 == 0) ? 5 : 1;
    }
    auto bytes = TraceFileCodec::encode(r);
    EXPECT_LT(bytes.size(), 4096u * 2 + 64);
}

TEST(TraceCodec, Crc32KnownVector)
{
    // CRC32("123456789") = 0xCBF43926 (IEEE check value).
    const char *s = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(s), 9),
              0xCBF43926u);
}

TEST(WorkingSetRecord, WastedAgainst)
{
    WorkingSetRecord r;
    r.pages = {1, 2, 3, 10, 11};
    std::vector<std::int64_t> touched = {2, 3, 10, 50};
    EXPECT_EQ(r.wastedAgainst(touched), 2); // pages 1 and 11
    EXPECT_EQ(r.wsFileBytes(), 5 * kPageSize);
}

TEST(WorkingSetRecord, WastedAgainstEdgeCases)
{
    WorkingSetRecord empty;
    EXPECT_EQ(empty.wastedAgainst({}), 0);
    EXPECT_EQ(empty.wastedAgainst({1, 2, 3}), 0);
    EXPECT_EQ(empty.wsFileBytes(), 0);

    WorkingSetRecord r;
    r.pages = {5, 6, 7};
    // Nothing touched: the whole record was wasted.
    EXPECT_EQ(r.wastedAgainst({}), 3);
    // Touched superset: nothing wasted.
    EXPECT_EQ(r.wastedAgainst({4, 5, 6, 7, 8}), 0);
    // Exact match.
    EXPECT_EQ(r.wastedAgainst({5, 6, 7}), 0);

    // Duplicate record entries each count against the touched set
    // (the WS file stores one copy per recorded fault).
    WorkingSetRecord dup;
    dup.pages = {3, 3, 9};
    EXPECT_EQ(dup.wastedAgainst({3}), 1);  // only page 9 missing
    EXPECT_EQ(dup.wastedAgainst({10}), 3); // both 3s and the 9
}

TEST(Orchestrator, RecordThenPrefetchEliminatesFaults)
{
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown record_bd, reap_bd;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");

        orch.flushHostCaches();
        record_bd = co_await orch.invoke(
            "helloworld", ColdStartMode::Reap, Opts{});
        EXPECT_TRUE(record_bd.recordPhase);
        EXPECT_TRUE(orch.hasRecord("helloworld"));

        orch.flushHostCaches();
        reap_bd = co_await orch.invoke("helloworld",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_FALSE(reap_bd.recordPhase);
    });

    // The record phase faults the full working set through userspace.
    EXPECT_GT(record_bd.majorFaults, 500);
    // REAP eliminates the overwhelming majority of faults (97% avg).
    EXPECT_LT(reap_bd.residualFaults, record_bd.majorFaults / 10);
    EXPECT_GT(reap_bd.prefetchedPages, 1500);
    // And slashes the cold-start latency (3.7x avg; helloworld ~3.9x).
    EXPECT_LT(reap_bd.total, record_bd.total / 2);
}

TEST(Orchestrator, ModeOrderingMatchesFig7)
{
    // Vanilla > ParallelPFs > WS-file > REAP for helloworld (Fig. 7).
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown vanilla, par_pf, ws_file, reap;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        // Record once so prefetch modes have the trace/WS files.
        orch.flushHostCaches();
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   Opts{});

        orch.flushHostCaches();
        vanilla = co_await orch.invoke(
            "helloworld", ColdStartMode::VanillaSnapshot, Opts{});
        orch.flushHostCaches();
        par_pf = co_await orch.invoke(
            "helloworld", ColdStartMode::ParallelPageFaults, Opts{});
        orch.flushHostCaches();
        ws_file = co_await orch.invoke(
            "helloworld", ColdStartMode::WsFileCached, Opts{});
        orch.flushHostCaches();
        reap = co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                    Opts{});
    });

    EXPECT_GT(vanilla.total, par_pf.total);
    EXPECT_GT(par_pf.total, ws_file.total);
    EXPECT_GT(ws_file.total, reap.total);
    // REAP's O_DIRECT fetch beats the page-cached fetch.
    EXPECT_LT(reap.fetchWs, ws_file.fetchWs);
    // All prefetch modes fetch the same page count.
    EXPECT_EQ(ws_file.prefetchedPages, reap.prefetchedPages);
}

TEST(Orchestrator, WarmRoutingAndKeepWarm)
{
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown cold, warm;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("pyaes"));
        co_await orch.prepareSnapshot("pyaes");
        orch.flushHostCaches();
        Opts keep;
        keep.keepWarm = true;
        cold = co_await orch.invoke(
            "pyaes", ColdStartMode::VanillaSnapshot, keep);
        EXPECT_EQ(orch.instanceCount("pyaes"), 1);
        warm = co_await orch.invoke(
            "pyaes", ColdStartMode::VanillaSnapshot, Opts{});
        co_await orch.stopAllInstances("pyaes");
    });
    EXPECT_TRUE(cold.cold);
    EXPECT_FALSE(warm.cold);
    EXPECT_EQ(warm.loadVmm, 0);
    EXPECT_EQ(warm.connRestore, 0);
    // One-to-two orders of magnitude (Sec. 4.2).
    EXPECT_GT(cold.total, 20 * warm.total);
}

TEST(Orchestrator, InstanceLifecycle)
{
    Simulation sim;
    Worker w(sim);
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        EXPECT_EQ(orch.instanceCount("helloworld"), 0);

        Opts keep;
        keep.keepWarm = true;
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   keep);
        EXPECT_EQ(orch.instanceCount("helloworld"), 1);
        EXPECT_EQ(orch.idleInstanceCount("helloworld"), 1);

        Opts keep_cold;
        keep_cold.keepWarm = true;
        keep_cold.forceCold = true;
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   keep_cold);
        EXPECT_EQ(orch.instanceCount("helloworld"), 2);

        co_await orch.stopAllInstances("helloworld");
        EXPECT_EQ(orch.instanceCount("helloworld"), 0);
    });
}

TEST(Orchestrator, FootprintRestoredVsBooted)
{
    // Fig. 4: restored instances have a small fraction of the booted
    // footprint.
    Simulation sim;
    Worker w(sim);
    Bytes booted = 0, restored = 0;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("lr_serving"));
        co_await orch.prepareSnapshot("lr_serving");

        Opts keep;
        keep.keepWarm = true;
        (void)co_await orch.invoke(
            "lr_serving", ColdStartMode::BootFromScratch, keep);
        booted = orch.instanceFootprints("lr_serving")[0];
        co_await orch.stopAllInstances("lr_serving");

        orch.flushHostCaches();
        (void)co_await orch.invoke(
            "lr_serving", ColdStartMode::VanillaSnapshot, keep);
        restored = orch.instanceFootprints("lr_serving")[0];
        co_await orch.stopAllInstances("lr_serving");
    });
    const auto &p = func::profileByName("lr_serving");
    EXPECT_NEAR(toMiB(booted), toMiB(p.bootFootprint) + 3.0, 5.0);
    EXPECT_NEAR(toMiB(restored), toMiB(p.workingSet) + 3.0, 5.0);
    EXPECT_LT(restored, booted / 4);
}

TEST(Orchestrator, RecordOverheadModest)
{
    // Sec. 6.4: the record phase costs 15-87% (28% avg) over vanilla.
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown vanilla, record;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        orch.flushHostCaches();
        vanilla = co_await orch.invoke(
            "helloworld", ColdStartMode::VanillaSnapshot, Opts{});
        orch.flushHostCaches();
        record = co_await orch.invoke("helloworld",
                                      ColdStartMode::Reap, Opts{});
    });
    EXPECT_TRUE(record.recordPhase);
    double overhead = static_cast<double>(record.total) /
                          static_cast<double>(vanilla.total) -
                      1.0;
    EXPECT_GT(overhead, 0.05);
    EXPECT_LT(overhead, 0.90);
}

TEST(Orchestrator, MispredictionsTrackUniquePages)
{
    // Sec. 7.1: wasted prefetched pages ~= the unique-page fraction.
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown bd;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("image_rotate"));
        co_await orch.prepareSnapshot("image_rotate");
        orch.flushHostCaches();
        (void)co_await orch.invoke("image_rotate",
                                   ColdStartMode::Reap, Opts{});
        orch.flushHostCaches();
        bd = co_await orch.invoke("image_rotate", ColdStartMode::Reap,
                                  Opts{});
    });
    const auto &p = func::profileByName("image_rotate");
    double wasted_frac = static_cast<double>(bd.wastedPrefetch) /
                         static_cast<double>(bd.prefetchedPages);
    EXPECT_GT(wasted_frac, p.uniqueFrac * 0.4);
    EXPECT_LT(wasted_frac, p.uniqueFrac * 1.6);
}

TEST(Orchestrator, AdaptiveRerecord)
{
    // Sec. 7.2: drifting working sets trigger a re-record when the
    // policy is enabled.
    Simulation sim;
    WorkerConfig cfg;
    cfg.reap.adaptiveRerecord = true;
    cfg.reap.rerecordThreshold = 0.05;
    Worker w(sim, cfg);
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(
            func::profileByName("video_processing"));
        co_await orch.prepareSnapshot("video_processing");
        orch.flushHostCaches();
        auto r1 = co_await orch.invoke("video_processing",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_TRUE(r1.recordPhase);
        orch.flushHostCaches();
        auto r2 = co_await orch.invoke("video_processing",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_FALSE(r2.recordPhase);
        // Drift (45% of the stable pool shifts) exceeds the threshold.
        EXPECT_GT(orch.stats("video_processing").rerecordsTriggered,
                  0);
        orch.flushHostCaches();
        auto r3 = co_await orch.invoke("video_processing",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_TRUE(r3.recordPhase); // re-recorded
    });
}

TEST(Orchestrator, ConnRestoreShrinksWithReap)
{
    // Sec. 6.3: connection restoration shrinks ~45x to 4-7 ms.
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown vanilla, reap;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("chameleon"));
        co_await orch.prepareSnapshot("chameleon");
        orch.flushHostCaches();
        vanilla = co_await orch.invoke(
            "chameleon", ColdStartMode::VanillaSnapshot, Opts{});
        orch.flushHostCaches();
        (void)co_await orch.invoke("chameleon", ColdStartMode::Reap,
                                   Opts{});
        orch.flushHostCaches();
        reap = co_await orch.invoke("chameleon", ColdStartMode::Reap,
                                    Opts{});
    });
    EXPECT_GT(vanilla.connRestore, msec(60));
    EXPECT_GT(reap.connRestore, msec(3));
    EXPECT_LT(reap.connRestore, msec(9));
    EXPECT_GT(vanilla.connRestore, 10 * reap.connRestore);
}

TEST(Orchestrator, BootModeWorksWithoutSnapshot)
{
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown bd;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        bd = co_await orch.invoke(
            "helloworld", ColdStartMode::BootFromScratch, Opts{});
    });
    EXPECT_TRUE(bd.cold);
    // Boot >> snapshot restore (Sec. 2.2: 700-1300 ms + init).
    EXPECT_GT(bd.total, msec(700));
}

TEST(Orchestrator, StatsAccumulate)
{
    Simulation sim;
    Worker w(sim);
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        Opts keep;
        keep.keepWarm = true;
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   keep);
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   Opts{});
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   Opts{});
        co_await orch.stopAllInstances("helloworld");
    });
    const auto &st = w.orchestrator().stats("helloworld");
    EXPECT_EQ(st.coldInvocations, 1);
    EXPECT_EQ(st.recordPhases, 1);
    EXPECT_EQ(st.warmInvocations, 2);
}


TEST(Orchestrator, ParallelPfInstallsExactlyTheRecord)
{
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown bd;
    std::int64_t recorded = 0;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("pyaes"));
        co_await orch.prepareSnapshot("pyaes");
        orch.flushHostCaches();
        (void)co_await orch.invoke("pyaes", ColdStartMode::Reap,
                                   Opts{});
        recorded = orch.record("pyaes").pageCount();
        Opts opts;
        opts.flushPageCache = true;
        opts.forceCold = true;
        bd = co_await orch.invoke(
            "pyaes", ColdStartMode::ParallelPageFaults, opts);
    });
    EXPECT_EQ(bd.prefetchedPages, recorded);
    EXPECT_GT(bd.fetchWs, 0);
    EXPECT_EQ(bd.installWs, 0); // installs interleave with fetches
    EXPECT_LT(bd.residualFaults, recorded / 10);
}

TEST(Orchestrator, WsFileModeBenefitsFromWarmPageCache)
{
    // Behavioral contrast: the page-cached WS-file fetch collapses
    // when the file is already resident, while REAP's O_DIRECT fetch
    // pays the device cost every time (Sec. 5.2.3).
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown ws_cold, ws_warm_cache, reap_cold,
        reap_warm_cache;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        orch.flushHostCaches();
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   Opts{});
        Opts flush;
        flush.flushPageCache = true;
        flush.forceCold = true;
        Opts no_flush;
        no_flush.forceCold = true;

        ws_cold = co_await orch.invoke(
            "helloworld", ColdStartMode::WsFileCached, flush);
        ws_warm_cache = co_await orch.invoke(
            "helloworld", ColdStartMode::WsFileCached, no_flush);
        reap_cold = co_await orch.invoke("helloworld",
                                         ColdStartMode::Reap, flush);
        reap_warm_cache = co_await orch.invoke(
            "helloworld", ColdStartMode::Reap, no_flush);
    });
    // Cached WS file: second fetch nearly free.
    EXPECT_LT(ws_warm_cache.fetchWs, ws_cold.fetchWs / 5);
    // O_DIRECT: cache residency does not help the fetch.
    EXPECT_GT(reap_warm_cache.fetchWs, reap_cold.fetchWs / 2);
}

TEST(Orchestrator, RerecordUsesNewInput)
{
    // After invalidation, the next cold start re-records with the
    // current input; the new record covers that input's unique pages.
    Simulation sim;
    Worker w(sim);
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("image_rotate"));
        co_await orch.prepareSnapshot("image_rotate");
        orch.flushHostCaches();
        auto r1 = co_await orch.invoke("image_rotate",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_TRUE(r1.recordPhase);
        auto first = orch.record("image_rotate").sortedPages();

        orch.invalidateRecord("image_rotate");
        orch.flushHostCaches();
        auto r2 = co_await orch.invoke("image_rotate",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_TRUE(r2.recordPhase);
        auto second = orch.record("image_rotate").sortedPages();
        // Different inputs -> records differ in their unique parts.
        EXPECT_NE(first, second);
        EXPECT_EQ(orch.stats("image_rotate").recordPhases, 2);
    });
}

TEST(Orchestrator, StopAllReclaimsManyInstances)
{
    Simulation sim;
    Worker w(sim);
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        Opts keep;
        keep.keepWarm = true;
        keep.forceCold = true;
        for (int i = 0; i < 5; ++i)
            (void)co_await orch.invoke("helloworld",
                                       ColdStartMode::Reap, keep);
        EXPECT_EQ(orch.instanceCount("helloworld"), 5);
        co_await orch.stopAllInstances("helloworld");
        EXPECT_EQ(orch.instanceCount("helloworld"), 0);
        // Fresh start still works after mass teardown.
        auto bd = co_await orch.invoke("helloworld",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_TRUE(bd.cold);
    });
}

TEST(Orchestrator, WarmInvokeDuringShutdownHandshakeStartsCold)
{
    // An idle instance's stop suspends in the uffd shutdown handshake.
    // A warm invocation arriving meanwhile must not claim the instance
    // being torn down: the handshake would then erase a busy instance
    // under the running invocation.
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown during;
    std::int64_t stopped = -1;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   Opts{}); // record phase
        Opts keep;
        keep.keepWarm = true;
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   keep);
        EXPECT_EQ(orch.idleInstanceCount("helloworld"), 1);

        struct Stopper {
            static Task<void>
            run(Orchestrator &o, std::int64_t *out, sim::Latch *done)
            {
                *out = co_await o.stopIdleInstances("helloworld");
                done->arrive();
            }
        };
        struct Invoker {
            static Task<void>
            run(Orchestrator &o, LatencyBreakdown *out, sim::Latch *done)
            {
                Opts k;
                k.keepWarm = true;
                *out = co_await o.invoke("helloworld",
                                         ColdStartMode::Reap, k);
                done->arrive();
            }
        };
        sim::Latch done(sim, 2);
        // Same instant, stopper first: the invoke lands while the
        // stop is suspended in the handshake.
        sim.spawn(Stopper::run(orch, &stopped, &done));
        sim.spawn(Invoker::run(orch, &during, &done));
        co_await done.wait();
        EXPECT_EQ(orch.instanceCount("helloworld"), 1);
        EXPECT_EQ(orch.idleInstanceCount("helloworld"), 1);
        co_await orch.stopAllInstances("helloworld");
    });
    EXPECT_EQ(stopped, 1);
    EXPECT_TRUE(during.cold); // the stopping instance was not reused
}

TEST(Orchestrator, OverlapAblationReducesLatency)
{
    // Ablation: overlapping the WS fetch with VMM-state load shortens
    // REAP cold starts for working sets whose fetch fits under the
    // load time.
    auto run_with = [](bool overlap) {
        Simulation sim;
        WorkerConfig cfg;
        cfg.reap.overlapFetchWithVmmLoad = overlap;
        Worker w(sim, cfg);
        LatencyBreakdown bd;
        runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
            orch.registerFunction(func::profileByName("helloworld"));
            co_await orch.prepareSnapshot("helloworld");
            orch.flushHostCaches();
            (void)co_await orch.invoke("helloworld",
                                       ColdStartMode::Reap, Opts{});
            orch.flushHostCaches();
            bd = co_await orch.invoke("helloworld",
                                      ColdStartMode::Reap, Opts{});
        });
        return bd.total;
    };
    Duration without = run_with(false);
    Duration with = run_with(true);
    EXPECT_LT(with, without);
}

} // namespace
} // namespace vhive::core

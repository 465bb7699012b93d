#include "cluster/fleet_stats.hh"

#include <algorithm>
#include <bit>
#include <concepts>
#include <ranges>

#include "cluster/snapshot_registry.hh"
#include "util/logging.hh"

namespace vhive::cluster {

namespace {

/**
 * FNV-1a over 64-bit words: integers by value, doubles by bit
 * pattern, ranges as their size then each element.
 */
struct Fnv
{
    std::uint64_t h = 14695981039346656037ull;

    void
    word(std::uint64_t w)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (w >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void mix(std::integral auto v) { word(static_cast<std::uint64_t>(v)); }
    void mix(double v) { word(std::bit_cast<std::uint64_t>(v)); }

    void
    mix(const std::ranges::range auto &r)
    {
        mix(std::ranges::size(r));
        for (const auto &v : r)
            mix(v);
    }

    void mix(const Samples &s) { mix(s.values()); }

    void
    mix(const net::ObjectStoreStats &s)
    {
        all(s.gets, s.puts, s.rangedGets, s.bytesServed, s.bytesStored,
            s.chunkPuts, s.chunkBatches, s.chunksServed, s.streamWaits,
            s.streamWaitTime, s.peakStreamQueue, s.requestRetries,
            s.outageStalls);
    }

    void
    mix(const core::TierBreakdown &t)
    {
        all(t.tier, t.hits, t.misses, t.admissions, t.bytes,
            t.residentBytes, t.peakResidentBytes, t.bytesEvicted, t.time);
    }

    void
    mix(const WorkerFleetRow &r)
    {
        all(r.worker, r.coldStarts, r.warmHits, r.inFlight, r.inFlightPeak,
            r.residentBytes, r.tierHits, r.wastedPrefetchPages,
            r.residentByteSec, r.wastedResidentByteSec,
            r.idleWarmInstanceSec);
    }

    template <typename... T>
    void
    all(const T &...vs)
    {
        (mix(vs), ...);
    }
};

} // namespace

void
WorkerFleetRow::noteServed(const core::LatencyBreakdown &bd)
{
    if (!bd.cold) {
        ++warmHits;
        return;
    }
    ++coldStarts;
    for (const auto &t : bd.tierHits)
        mergeTierRow(tierHits, t);
    wastedPrefetchPages += bd.wastedPrefetch;
}

void
WorkerFleetRow::noteJanitorTick(const core::Orchestrator &orch,
                                Duration dt)
{
    double sec = static_cast<double>(dt) / 1e9;
    residentByteSec +=
        static_cast<double>(orch.totalResidentBytes()) * sec;
    wastedResidentByteSec +=
        static_cast<double>(orch.idleResidentBytes()) * sec;
    idleWarmInstanceSec +=
        static_cast<double>(orch.idleInstanceTotal()) * sec;
}

void
FleetStats::noteInvocation(double e2e_ms, bool cold, bool failed)
{
    ++invocations;
    e2eLatencyMs.add(e2e_ms);
    if (failed) {
        ++failedInvocations;
    } else if (cold) {
        ++coldStarts;
        coldE2eMs.add(e2e_ms);
    } else {
        ++warmHits;
        warmE2eMs.add(e2e_ms);
    }
}

void
FleetStats::addWorker(WorkerFleetRow row, const core::Orchestrator &orch,
                      const std::vector<std::string> &functions,
                      bool registry_staging)
{
    row.worker = static_cast<int>(perWorker.size());
    row.residentBytes = orch.totalResidentBytes();
    residentBytes += row.residentBytes;
    wastedPrefetchPages += row.wastedPrefetchPages;
    residentByteSec += row.residentByteSec;
    wastedResidentByteSec += row.wastedResidentByteSec;
    idleWarmInstanceSec += row.idleWarmInstanceSec;
    for (const auto &t : row.tierHits)
        mergeTierRow(tierHits, t);
    perWorker.push_back(std::move(row));

    wastedPreWarms += orch.wastedPreWarms();
    pageCachePeakBytes += orch.tierBudget().peakResidentBytes();
    pageCacheEvictedBytes += orch.tierBudget().evictedBytes();
    const auto &cc = orch.localChunkCache().stats();
    workerChunkPeakBytes += cc.peakStoredBytes;
    workerChunkBudgetEvictions += cc.budgetEvictions;
    ssdEvictions += orch.ssdEvictions();
    peakSsdBytes += orch.peakSsdBytes();
    for (const std::string &name : functions) {
        const core::FunctionStats &st = orch.stats(name);
        preWarmHits += st.preWarmHits;
        if (!registry_staging) {
            // Worker-local staging: delta accounting lives in the
            // per-function stats (the registry's under sharing).
            restages += st.deltaRestages;
            deltaChunksUploaded += st.deltaChunksUploaded;
            deltaBytesUploaded += st.deltaBytesUploaded;
        }
    }
    if (!registry_staging)
        snapshotBuilds += orch.snapshotBuilds();
}

void
FleetStats::addSharedStaging(const net::ShardedObjectStore &shared,
                             const SnapshotRegistry &registry)
{
    store = shared.stats();
    storeShards = shared.shardStats();
    const storage::ChunkStore &index = registry.chunkIndex();
    chunkStoredBytes = index.storedBytes();
    chunksStored = index.chunkCount();
    chunksDeduped = index.stats().dedupHits;
    fleetChunkPeakBytes = index.stats().peakStoredBytes;
    fleetChunkBudgetEvictions = index.stats().budgetEvictions;
    retires += registry.retires();
    gcReleasedBytes += registry.gcReleasedBytes();
    for (const StagedArtifact &art : registry.artifacts()) {
        snapshotBuilds += art.builds;
        stagedBytes += art.stagedBytes;
        remoteArtifactFetches += art.remoteFetches;
        fetchFanIn += art.fetchFanIn();
        chunkLogicalBytes += art.logicalBytes;
        dedupSavedBytes += art.dedupSavedBytes;
        chunksUploaded += art.chunksUploaded;
        restages += art.restages;
        deltaChunksUploaded += art.deltaChunksUploaded;
        deltaBytesUploaded += art.deltaBytesUploaded;
    }
}

std::uint64_t
FleetStats::digest() const
{
    Fnv f;
    f.all(workers, invocations, coldStarts, warmHits, failedInvocations,
          scaleDowns, e2eLatencyMs, coldE2eMs, warmE2eMs, residentBytes,
          perWorker, tierHits, store, storeShards, residentByteSec,
          wastedResidentByteSec, idleWarmInstanceSec, wastedPrefetchPages,
          preWarms, preWarmHits, wastedPreWarms, bgPrefetches,
          snapshotBuilds, stagedBytes, remoteArtifactFetches, fetchFanIn,
          chunkLogicalBytes, chunkStoredBytes, dedupSavedBytes,
          chunksStored, chunksUploaded, chunksDeduped,
          fleetChunkPeakBytes, fleetChunkBudgetEvictions,
          pageCachePeakBytes, pageCacheEvictedBytes, workerChunkPeakBytes,
          workerChunkBudgetEvictions, ssdEvictions, peakSsdBytes, restages,
          deltaChunksUploaded, deltaBytesUploaded, retires, gcReleasedBytes,
          eventsProcessed, windows, messages);
    return f.h;
}

void
mergeTierRow(std::vector<core::TierBreakdown> &into,
             const core::TierBreakdown &row)
{
    for (auto &t : into) {
        if (t.tier == row.tier) {
            t.hits += row.hits;
            t.misses += row.misses;
            t.admissions += row.admissions;
            t.bytes += row.bytes;
            // Resident/peak/evicted are cumulative worker-wide
            // samples (each cold's row carries the counter's value at
            // that instant), not per-invocation increments: summing
            // would multiply-count them, so merge by max — the
            // highest (for the monotonic counters, latest) sample.
            t.residentBytes =
                std::max(t.residentBytes, row.residentBytes);
            t.peakResidentBytes =
                std::max(t.peakResidentBytes, row.peakResidentBytes);
            t.bytesEvicted =
                std::max(t.bytesEvicted, row.bytesEvicted);
            t.time += row.time;
            return;
        }
    }
    into.push_back(row);
}

void
mergeStoreStats(net::ObjectStoreStats &a, const net::ObjectStoreStats &b)
{
    a.gets += b.gets;
    a.puts += b.puts;
    a.rangedGets += b.rangedGets;
    a.bytesServed += b.bytesServed;
    a.bytesStored += b.bytesStored;
    a.streamWaits += b.streamWaits;
    a.streamWaitTime += b.streamWaitTime;
    a.peakStreamQueue =
        std::max(a.peakStreamQueue, b.peakStreamQueue);
    a.chunkPuts += b.chunkPuts;
    a.chunkBatches += b.chunkBatches;
    a.chunksServed += b.chunksServed;
    a.requestRetries += b.requestRetries;
    a.outageStalls += b.outageStalls;
}

void
validateFleetConfig(const FleetConfig &cfg, const char *engine)
{
    if (cfg.workers < 1)
        fatal("%s: workers must be >= 1 (got %d)", engine, cfg.workers);
    if (cfg.sharedStoreShards < 1)
        fatal("%s: sharedStoreShards must be >= 1 (got %d)", engine,
              cfg.sharedStoreShards);
    for (auto [field, d] : {std::pair{"keepAlive", cfg.keepAlive},
                            std::pair{"scalePeriod", cfg.scalePeriod}}) {
        if (d <= 0)
            fatal("%s: %s must be > 0 (got %lld ns)", engine, field,
                  static_cast<long long>(d));
    }
    const core::ReapOptions &reap = cfg.worker.reap;
    for (auto [field, bytes] :
         {std::pair{"registryChunkBudget", cfg.registryChunkBudget},
          std::pair{"worker.reap.pageCacheBudget", reap.pageCacheBudget},
          std::pair{"worker.reap.chunkCacheBudget", reap.chunkCacheBudget},
          std::pair{"worker.reap.ssdBudget", reap.ssdBudget}}) {
        if (bytes < 0)
            fatal("%s: %s must be >= 0 (got %lld)", engine, field,
                  static_cast<long long>(bytes));
    }
    if (cfg.sharedSnapshots &&
        cfg.coldStartMode != core::ColdStartMode::TieredReap &&
        cfg.coldStartMode != core::ColdStartMode::RemoteReap &&
        cfg.coldStartMode != core::ColdStartMode::DedupReap) {
        fatal("%s: sharedSnapshots needs a remote-capable cold-start "
              "mode (TieredReap, RemoteReap or DedupReap); %s keeps "
              "all artifacts local and has nothing to stage",
              engine, core::coldStartModeName(cfg.coldStartMode));
    }
}

std::unique_ptr<net::ShardedObjectStore>
makeSharedStore(sim::Simulation &sim, const FleetConfig &cfg)
{
    net::ShardedStoreParams sp;
    sp.shards = cfg.sharedStoreShards;
    sp.shard = cfg.sharedStore;
    sp.placement = cfg.chunkPlacement;
    return std::make_unique<net::ShardedObjectStore>(sim, sp);
}

std::unique_ptr<core::Worker>
makeWorker(sim::Simulation &sim, const FleetConfig &cfg, int i,
           net::ArtifactStore *store)
{
    core::WorkerConfig wc = cfg.worker;
    wc.seed = cfg.worker.seed + static_cast<std::uint64_t>(i);
    return std::make_unique<core::Worker>(sim, wc, store);
}

core::ColdStartMode
preWarmMode(core::ColdStartMode mode)
{
    switch (mode) {
      case core::ColdStartMode::TieredReap:
      case core::ColdStartMode::RemoteReap:
      case core::ColdStartMode::DedupReap:
      case core::ColdStartMode::BackgroundWarm:
        return core::ColdStartMode::BackgroundWarm;
      default:
        return mode;
    }
}

bool
fetchedRemotely(const FleetConfig &cfg,
                const core::LatencyBreakdown &bd,
                bool artifacts_were_local)
{
    if (!cfg.sharedSnapshots || !bd.cold)
        return false;
    bool fetched = cfg.coldStartMode == core::ColdStartMode::RemoteReap ||
                   !artifacts_were_local;
    for (const auto &t : bd.tierHits) {
        if (t.tier == "remote")
            fetched = t.bytes > 0;
    }
    return fetched;
}

ControlTickContext
controlTickContext(Time now, int workers, const FleetStats &live)
{
    ControlTickContext ctx;
    ctx.now = now;
    ctx.workers = workers;
    ctx.coldStarts = live.coldStarts;
    if (live.coldE2eMs.count() > 0)
        ctx.coldP99Ms = Samples(live.coldE2eMs).percentile(99);
    return ctx;
}

sim::Task<bool>
preRecordWorkingSets(const FleetConfig &cfg,
                     std::vector<core::Orchestrator *> orchs,
                     std::vector<std::string> functions)
{
    if (cfg.sharedSnapshots || orchs.empty() ||
        !orchs.front()
             ->loaders()
             .loaderFor(cfg.coldStartMode)
             .needsRecord())
        co_return false;
    for (const std::string &name : functions) {
        for (core::Orchestrator *orch : orchs) {
            orch->flushHostCaches();
            core::InvokeOptions opts;
            opts.forceCold = true;
            (void)co_await orch->invoke(name, cfg.coldStartMode, opts);
        }
    }
    co_return true;
}

} // namespace vhive::cluster

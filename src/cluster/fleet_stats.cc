#include "cluster/fleet_stats.hh"

#include <algorithm>
#include <bit>
#include <concepts>
#include <ranges>

#include "cluster/snapshot_registry.hh"

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

/**
 * Merge one tier row into @p into, keyed by tier label (same label ->
 * counters summed; new label -> appended in arrival order).
 */
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

} // namespace vhive::cluster

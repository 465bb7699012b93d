/**
 * @file
 * The one fleet schema of cluster::Cluster (sequential) and
 * cluster::ParallelFleet (parallel kernel): the configuration fields
 * both engines declare (FleetConfig), the one fleet-level result both
 * report (FleetStats — from Cluster::fleetStats(),
 * AzureWorkload/TrafficWorkload::run() and ParallelFleet::run()), and
 * every engine step both run, written once.
 *
 * FleetStats aggregates what the SeBS methodology (arXiv:2012.14132)
 * says a serverless benchmark must report at fleet level — cold-start
 * latency percentiles (p50/p99/p999) rather than single-host means,
 * per-worker and fleet-summed tier-hit accounting, object-store stream
 * contention, resident memory, and the snapshot-registry staging
 * counters. Each name means one thing on both engines; what an engine
 * does not model stays zero:
 *
 *  - Cluster: the kernel counters (eventsProcessed, windows, messages).
 *  - ParallelFleet: failedInvocations (no crash retries), fetchFanIn,
 *    the restage/delta counters (restages, deltaChunksUploaded,
 *    deltaBytesUploaded) and the retire/GC counters (retires,
 *    gcReleasedBytes); it reports store/storeShards for the shared
 *    store only, so both stay zero without sharedSnapshots.
 */

#ifndef VHIVE_CLUSTER_FLEET_STATS_HH
#define VHIVE_CLUSTER_FLEET_STATS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/control_policy.hh"
#include "cluster/routing_policy.hh"
#include "core/options.hh"
#include "core/orchestrator.hh"
#include "core/worker.hh"
#include "net/object_store.hh"
#include "net/sharded_store.hh"
#include "sim/task.hh"
#include "storage/eviction.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace vhive::cluster {

class SnapshotRegistry;

/**
 * Configuration fields of a fleet, whichever engine runs it.
 * ClusterConfig and ParallelFleetConfig derive from it and add only
 * their engine's own fields.
 */
struct FleetConfig
{
    /** Number of worker hosts (ParallelFleet: worker domains). */
    int workers = 1;

    /**
     * Configuration applied to every worker (worker i is seeded
     * worker.seed + i). Worker-side byte budgets (page cache, chunk
     * cache, local SSD) ride in `worker.reap`.
     */
    core::WorkerConfig worker{};

    /** How the workers start cold instances. */
    core::ColdStartMode coldStartMode = core::ColdStartMode::Reap;

    /**
     * Idle-instance lifetime before deallocation (Sec. 2.1: providers
     * use 8-20 minutes; default 10).
     */
    Duration keepAlive = sec(600);

    /** Autoscaler (keep-alive janitor) reconciliation period. */
    Duration scalePeriod = sec(2);

    /** Which RoutingPolicy the front-end dispatches through. */
    RoutingPolicyKind routingPolicy = RoutingPolicyKind::WarmFirst;

    /**
     * Which predictive ControlPolicy runs each control tick
     * (pre-warming, chunk prefetch, scale hints). None (default)
     * spawns no control machinery, bit-identical to no policy.
     */
    ControlPolicyKind controlPolicy = ControlPolicyKind::None;

    /**
     * Cross-worker snapshot sharing (Sec. 7.1 at fleet scale): build
     * each function's snapshot once on its home worker, stage the
     * artifacts into one fleet-shared object store, and let every
     * other worker cold-start through the remote tier instead of
     * rebuilding. Requires a remote-capable cold-start mode
     * (TieredReap, RemoteReap or DedupReap). Off by default:
     * per-worker staging, bit-identical to the historical behaviour.
     */
    bool sharedSnapshots = false;

    /** Per-shard parameters of the shared store (sharedSnapshots). */
    net::ObjectStoreParams sharedStore = net::ObjectStoreParams::remote();

    /**
     * Shards behind the fleet-shared store (sharedSnapshots only).
     * Each shard has its own stream bound and stats; 1 keeps the
     * historical single-store behaviour bit-identical.
     */
    int sharedStoreShards = 1;

    /** How chunk uploads spread across shards (DedupReap staging). */
    net::ChunkPlacementPolicy chunkPlacement =
        net::ChunkPlacementPolicy::Hash;

    /**
     * Byte budget of the fleet staged-chunk index (sharedSnapshots +
     * DedupReap; 0 = unlimited, the historical behaviour). Chunks a
     * live manifest references are never evicted; the zero-ref pool
     * retirement and re-staging leave behind is what budget pressure
     * reclaims.
     */
    Bytes registryChunkBudget = 0;

    /** Victim selection for the budgeted fleet chunk index. */
    storage::EvictionPolicyKind registryEvictionPolicy =
        storage::EvictionPolicyKind::Lru;
};

/** One worker's slice of the fleet telemetry. */
struct WorkerFleetRow
{
    int worker = 0;
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;

    /** Invocations in flight now, and the deepest load this worker
     * ever carried. */
    std::int64_t inFlight = 0;
    std::int64_t inFlightPeak = 0;

    /** Resident instance memory at collection time. */
    Bytes residentBytes = 0;

    /** Summed LatencyBreakdown::tierHits of this worker's colds. */
    std::vector<core::TierBreakdown> tierHits;

    /** Summed LatencyBreakdown::wastedPrefetch of this worker's
     * colds — WS pages prefetched but not touched by the served
     * input (Sec. 6.2 record/replay input-drift waste). */
    std::int64_t wastedPrefetchPages = 0;

    /** @name This worker's memory bill (see FleetStats). */
    /// @{
    double residentByteSec = 0;
    double wastedResidentByteSec = 0;
    double idleWarmInstanceSec = 0;
    /// @}

    /** Count one served invocation (@p bd as the worker returned
     * it): a cold start adds its tier rows and prefetch waste. */
    void noteServed(const core::LatencyBreakdown &bd);

    /** Integrate @p orch's resident and idle-warm memory over one
     * keep-alive janitor tick of length @p dt. Pure arithmetic: a
     * dormant control plane stays bit-identical to none. */
    void noteJanitorTick(const core::Orchestrator &orch, Duration dt);
};

/** Fleet-level aggregate over all workers and deployed functions. */
struct FleetStats
{
    int workers = 0;

    /** @name Invocation outcomes. Every completed invocation lands in
     * exactly one of coldStarts, warmHits or failedInvocations. */
    /// @{
    std::int64_t invocations = 0;
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;

    /** Invocations reported failed after crash retries (fault runs
     * only). */
    std::int64_t failedInvocations = 0;

    /** Keep-alive sweeps that stopped at least one idle instance. */
    std::int64_t scaleDowns = 0;
    /// @}

    /** End-to-end latency of every invocation, in completion order
     * (ms). */
    Samples e2eLatencyMs;

    /** End-to-end latency of every cold start across the fleet (ms). */
    Samples coldE2eMs;

    /** End-to-end latency of every warm hit across the fleet (ms). */
    Samples warmE2eMs;

    /** Resident instance memory summed across workers. */
    Bytes residentBytes = 0;

    std::vector<WorkerFleetRow> perWorker;

    /** Per-tier accounting summed across workers. */
    std::vector<core::TierBreakdown> tierHits;

    /**
     * Object-store traffic: the shared store when snapshot sharing is
     * on, otherwise (Cluster only) the per-worker stores summed.
     * streamWaits / streamWaitTime / peakStreamQueue expose data-plane
     * contention.
     */
    net::ObjectStoreStats store{};

    /**
     * Per-shard rows of the shared store, in shard order (empty when
     * snapshot sharing is off). The summed `store` field above and
     * these rows agree by construction: mergeStoreStats over the rows
     * reproduces the aggregate.
     */
    std::vector<net::ObjectStoreStats> storeShards;

    /**
     * @name Memory bill, integrated per worker by the keep-alive
     * janitor each scalePeriod and summed. The warm-pool waste fields
     * are the denominator of every keep-alive / pre-warm policy
     * comparison: how much memory sat resident without serving.
     */
    /// @{

    /** Byte-seconds of all resident instance memory (the GB-minute
     * integral of the Azure keep-alive study). */
    double residentByteSec = 0;

    /**
     * Byte-seconds of instance memory held by idle warm instances.
     * This is the resource bill of a keep-alive/pre-warm policy; the
     * control frontier weighs it against cold p99.
     */
    double wastedResidentByteSec = 0;

    /** Instance-seconds spent idle-warm (same integration). */
    double idleWarmInstanceSec = 0;

    /** Fleet sum of per-worker wastedPrefetchPages. */
    std::int64_t wastedPrefetchPages = 0;
    /// @}

    /** @name Predictive control plane (zero when the policy is None). */
    /// @{

    /** Orchestrator::preWarm requests completed (including no-ops on
     * a function that already had an idle or warming instance). */
    std::int64_t preWarms = 0;

    /** Invocations served by a pre-warmed (or mid-warm) instance. */
    std::int64_t preWarmHits = 0;

    /** Pre-warmed instances retired without ever serving. */
    std::int64_t wastedPreWarms = 0;

    /** Orchestrator::backgroundPrefetch requests completed (including
     * ones that found nothing to move). */
    std::int64_t bgPrefetches = 0;
    /// @}

    /** @name Snapshot staging. */
    /// @{

    /** Snapshots built fleet-wide: one per function under shared
     * staging, one per function and worker otherwise. */
    std::int64_t snapshotBuilds = 0;

    /** Bytes uploaded into the shared store by staging. */
    Bytes stagedBytes = 0;

    /** Cold starts that pulled artifact bytes through the store. */
    std::int64_t remoteArtifactFetches = 0;

    /** Distinct (function, worker) pairs that fetched remotely. */
    std::int64_t fetchFanIn = 0;
    /// @}

    /** @name Content-addressed staging (DedupReap + shared mode). */
    /// @{

    /** Raw artifact bytes described by all staged manifests. */
    Bytes chunkLogicalBytes = 0;

    /** Distinct compressed bytes resident in the staged index. */
    Bytes chunkStoredBytes = 0;

    /** Upload bytes avoided because the chunk was already staged. */
    Bytes dedupSavedBytes = 0;

    /** Distinct chunks in the staged index. */
    std::int64_t chunksStored = 0;

    /** Chunks staging uploaded to the shared store. */
    std::int64_t chunksUploaded = 0;

    /** addRef()s deduplicated against an already-staged chunk. */
    std::int64_t chunksDeduped = 0;
    /// @}

    /**
     * @name Cache & storage economics: byte budgets, delta
     * re-staging and fleet GC (all zero with budgets off and no
     * restage/retire — the historical behaviour).
     */
    /// @{

    /** High-water mark of the staged index's compressed bytes. */
    Bytes fleetChunkPeakBytes = 0;

    /** Chunks budget pressure evicted from the staged index. */
    std::int64_t fleetChunkBudgetEvictions = 0;

    /** Worker page-cache peak resident bytes, summed. */
    Bytes pageCachePeakBytes = 0;

    /** Worker page-cache bytes shed by budget pressure, summed. */
    Bytes pageCacheEvictedBytes = 0;

    /** Worker chunk-cache peak stored bytes, summed. */
    Bytes workerChunkPeakBytes = 0;

    /** Worker chunk-cache budget evictions, summed. */
    std::int64_t workerChunkBudgetEvictions = 0;

    /** Local-SSD artifact copies evicted by ssdBudget, summed. */
    std::int64_t ssdEvictions = 0;

    /** Peak local artifact bytes, summed across workers. */
    Bytes peakSsdBytes = 0;

    /** Delta re-stagings completed (restageFunction). */
    std::int64_t restages = 0;

    /** Chunks delta re-staging uploaded — the churn that moved. */
    std::int64_t deltaChunksUploaded = 0;

    /** Compressed bytes those delta uploads moved. */
    Bytes deltaBytesUploaded = 0;

    /** Functions retired fleet-wide (retireFunction). */
    std::int64_t retires = 0;

    /** Stored bytes GC reclaimed from the staged index. */
    Bytes gcReleasedBytes = 0;
    /// @}

    /** @name Parallel-kernel work: events across domains, sync
     * windows, cross-domain messages. */
    /// @{
    std::int64_t eventsProcessed = 0;
    std::int64_t windows = 0;
    std::int64_t messages = 0;
    /// @}

    /** Count one completed invocation of end-to-end latency
     * @p e2e_ms: failed, else cold or warm. */
    void noteInvocation(double e2e_ms, bool cold, bool failed = false);

    /**
     * Fold the next worker into the totals: @p row (the engine's
     * per-invocation telemetry for it) joins perWorker with its index
     * and the worker's resident bytes, and the orchestrator's pre-warm, cache
     * and SSD counters are summed. @p functions are the deployed
     * names. Unless @p registry_staging (snapshot builds and delta
     * re-staging are then counted fleet-side), the worker's own
     * builds and per-function delta re-stagings are summed too.
     */
    void addWorker(WorkerFleetRow row, const core::Orchestrator &orch,
                   const std::vector<std::string> &functions,
                   bool registry_staging);

    /**
     * Fold the fleet-shared store's traffic and @p registry's staging
     * counters (sharedSnapshots): its staged-chunk index, and every
     * staging record's builds, bytes, dedup, fetch and delta counters
     * summed into the totals. The one staging fold of both engines.
     */
    void addSharedStaging(const net::ShardedObjectStore &shared,
                          const SnapshotRegistry &registry);

    /**
     * Fraction of staged compressed bytes that never crossed the wire
     * thanks to dedup (0 when staging is not chunked).
     */
    double
    dedupRatio() const
    {
        Bytes total = dedupSavedBytes + stagedBytes;
        return total > 0 ? static_cast<double>(dedupSavedBytes) /
                               static_cast<double>(total)
                         : 0.0;
    }

    double
    coldFraction() const
    {
        auto total = coldStarts + warmHits;
        return total ? static_cast<double>(coldStarts) /
                           static_cast<double>(total)
                     : 0.0;
    }

    double coldP50() const { return coldE2eMs.percentile(50); }
    double coldP99() const { return coldE2eMs.percentile(99); }
    double coldP999() const { return coldE2eMs.percentile(99.9); }

    /**
     * FNV-1a fingerprint over every field (per-sample latency bit
     * patterns in arrival order, counters, per-worker and per-tier
     * rows, store stats). Two runs are bit-identical iff digests
     * match; the determinism suites assert equality across sim
     * thread counts and between dormant features and none.
     */
    std::uint64_t digest() const;
};

/**
 * Merge one tier row into @p into, keyed by tier label (same label ->
 * counters summed; new label -> appended in arrival order).
 */
void mergeTierRow(std::vector<core::TierBreakdown> &into,
                  const core::TierBreakdown &row);

/** Sum @p b's request/byte/contention counters into @p a. */
void mergeStoreStats(net::ObjectStoreStats &a,
                     const net::ObjectStoreStats &b);

/**
 * fatal() on a configuration no engine can run, naming @p engine and
 * the offending field: fewer than one worker or shard, a negative
 * byte budget, a non-positive keep-alive or scale period, or snapshot
 * sharing with a mode that keeps every artifact local.
 */
void validateFleetConfig(const FleetConfig &cfg, const char *engine);

/** The fleet-shared store @p cfg describes (sharedSnapshots), on
 * @p sim. */
std::unique_ptr<net::ShardedObjectStore> makeSharedStore(
    sim::Simulation &sim, const FleetConfig &cfg);

/**
 * Worker @p i of the fleet on @p sim, seeded worker.seed + i
 * (distinct page layouts do not matter, but determinism across runs
 * does), staging through @p store (null: its own object store).
 */
std::unique_ptr<core::Worker> makeWorker(sim::Simulation &sim,
                                         const FleetConfig &cfg, int i,
                                         net::ArtifactStore *store);

/**
 * The ColdStartMode pre-warm actions load through: Sec. 6.3
 * background working-set warming for the tiered/remote family (yield
 * store streams to foreground colds), the configured mode itself
 * otherwise (plain Reap must not gain tiered staging).
 */
core::ColdStartMode preWarmMode(core::ColdStartMode mode);

/**
 * Whether the invocation @p bd describes was a cold start that pulled
 * staged artifact bytes through the fleet-shared store (never without
 * sharedSnapshots). RemoteReap GETs the artifacts on every cold start;
 * tiered chains report exactly which tier served the WS bytes, and
 * that report wins over @p artifacts_were_local (the pre-invoke view,
 * which a concurrent cold start may have changed).
 */
bool fetchedRemotely(const FleetConfig &cfg,
                     const core::LatencyBreakdown &bd,
                     bool artifacts_were_local);

/**
 * The fleet-wide part of a ControlPolicy tick's input: @p now, the
 * worker count, and the cold starts and cold p99 in @p live so far.
 * The p99 is taken on a copy: Samples::percentile() sorts in place,
 * and the reported samples keep their arrival order whether or not a
 * policy ticks.
 */
ControlTickContext controlTickContext(Time now, int workers,
                                      const FleetStats &live);

/**
 * The off-window record pass: one forced record-phase cold start of
 * every function on every orchestrator (function-major order, host
 * caches flushed before each), so the measured window starts with
 * every working set recorded — deployed production functions recorded
 * long ago. Skipped when the configured mode records nothing, and
 * under shared staging (each home worker already recorded once; the
 * others are meant to pull the staged artifacts in-window).
 * @return whether the pass ran.
 */
sim::Task<bool> preRecordWorkingSets(
    const FleetConfig &cfg, std::vector<core::Orchestrator *> orchs,
    std::vector<std::string> functions);

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_FLEET_STATS_HH

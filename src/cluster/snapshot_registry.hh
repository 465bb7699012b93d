/**
 * @file
 * Fleet-shared snapshot staging (the Sec. 7.1 consequence the per-
 * worker cluster left on the table): snapshot artifacts can live in
 * remote disaggregated storage, so a fleet needs to build and stage
 * each function's snapshot + working-set artifacts exactly once — one
 * build on a deterministic home worker, one upload into the shared
 * object store — and every other worker cold-starts by pulling the
 * staged artifact through its remote tier instead of rebuilding.
 *
 * The staging path is written once, here, for both fleet engines:
 * homeStagePayload() is the home worker's half (build, record, price
 * or chunk the artifacts); SnapshotRegistry is the store's half
 * (single-flight, fault rolls, chunk dedup against the fleet index,
 * upload, per-artifact accounting) and FleetStats::addSharedStaging
 * folds its counters. cluster::Cluster owns an in-domain registry that
 * drives both halves itself (ensureStaged, restage, retire) and turns
 * prepareAllSnapshots() from an O(functions x workers) serial build
 * loop into build-once + fan-out metadata adoption. ParallelFleet's
 * store domain owns one too and stage()s the payloads home workers
 * ship it over ports.
 */

#ifndef VHIVE_CLUSTER_SNAPSHOT_REGISTRY_HH
#define VHIVE_CLUSTER_SNAPSHOT_REGISTRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ranges>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fleet_stats.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "core/ws_file.hh"
#include "net/object_store.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "storage/chunk_store.hh"
#include "util/units.hh"
#include "vmm/snapshot.hh"

namespace vhive::cluster {

/** What the registry knows about one staged function. */
struct StagedArtifact
{
    /** Worker that built and recorded the artifacts. */
    int homeWorker = -1;

    /** Snapshot builds performed for this function (must stay 1). */
    std::int64_t builds = 0;

    /** Bytes put() into the shared store (VMM state + WS file). Under
     * chunked staging (DedupReap) only *newly stored* compressed chunk
     * bytes count — what actually crossed the wire. */
    Bytes stagedBytes = 0;

    /** @name Chunked staging only (zero for blob staging). */
    /// @{

    /** Raw artifact bytes the manifests describe. */
    Bytes logicalBytes = 0;

    /** Compressed bytes NOT uploaded because the chunk was already
     * staged (by this or any other function). */
    Bytes dedupSavedBytes = 0;

    /** Manifest chunks across both artifacts. */
    std::int64_t chunksTotal = 0;

    /** Chunks this staging actually uploaded. */
    std::int64_t chunksUploaded = 0;
    /// @}

    /** @name Delta re-staging (restage(); zero until one happens). */
    /// @{

    /** Completed restage() passes for this function. */
    std::int64_t restages = 0;

    /** Chunks restaging uploaded — the churned delta. */
    std::int64_t deltaChunksUploaded = 0;

    /** Compressed bytes those delta uploads moved. */
    Bytes deltaBytesUploaded = 0;

    /** Chunks restaging dedup-hit against the previous version. */
    std::int64_t deltaChunksUnchanged = 0;
    /// @}

    /** Cold starts that pulled the artifact through the remote tier. */
    std::int64_t remoteFetches = 0;

    /** Which workers ever pulled remotely (fan-in bitmap). */
    std::vector<bool> fetchedBy;

    bool staged = false;

    /** Distinct workers that pulled the staged artifact remotely. */
    std::int64_t
    fetchFanIn() const
    {
        std::int64_t n = 0;
        for (bool b : fetchedBy)
            n += b ? 1 : 0;
        return n;
    }
};

/**
 * One recorded version of a function's artifacts, as its home worker
 * hands them to the registry: what the store uploads and what every
 * worker adopts.
 */
struct StagePayload
{
    /** The working set the home worker recorded. */
    core::WorkingSetRecord record;

    /** Chunk manifests (DedupReap); null for blob staging. */
    std::shared_ptr<const vmm::SnapshotManifests> manifests;

    /** Blob size to put() when not chunked (VMM state + WS file). */
    Bytes blobBytes = 0;

    /** Snapshot builds the home worker performed to produce it. */
    std::int64_t builds = 0;
};

/**
 * The home worker's half of staging @p name under @p mode: boot and
 * snapshot (prepareSnapshot, a no-op once built), run the forced-cold
 * record phase when no working set is recorded, then build the chunk
 * manifests (DedupReap) or price the blob (stagedArtifactBytes).
 */
sim::Task<StagePayload> homeStagePayload(core::Worker &home,
                                         const std::string &name,
                                         core::ColdStartMode mode);

/**
 * Stages each deployed function's artifacts into the shared object
 * store exactly once, even under concurrent staging calls (the first
 * caller stages, later callers wait on a per-function gate). Owned by
 * Cluster (in-domain, with the fleet: ensureStaged/restage/retire) and
 * by ParallelFleet's store domain (without it: stage()).
 */
class SnapshotRegistry
{
  public:
    /**
     * @param store The fleet-shared store staging uploads into.
     * @param cfg The fleet: its worker count places home workers, its
     * cold-start mode is the one the record phase runs (so recorded
     * artifacts match what the fleet restores with), and its
     * registryChunkBudget caps the staged-chunk index.
     * @param fleet The in-domain workers (borrowed; the owning
     * Cluster outlives the registry), required by ensureStaged() and
     * restage(). Null when the workers live in other domains and
     * ship their payloads to stage().
     */
    SnapshotRegistry(
        sim::Simulation &sim, net::ArtifactStore &store,
        const FleetConfig &cfg,
        const std::vector<std::unique_ptr<core::Worker>> *fleet =
            nullptr);

    SnapshotRegistry(const SnapshotRegistry &) = delete;
    SnapshotRegistry &operator=(const SnapshotRegistry &) = delete;

    /**
     * Build + stage @p name's artifacts if not already staged: build
     * and record on the home worker (homeStagePayload), upload, then
     * fan the metadata out to every worker (adoptStagedArtifacts).
     * Concurrent callers for the same function wait for the single
     * in-flight staging instead of duplicating it.
     */
    sim::Task<void> ensureStaged(const std::string &name);

    /**
     * Stage @p payload as @p name's artifacts unless already staged:
     * the path of a registry whose workers live in other domains —
     * the caller ships the home worker's payload in and fans the
     * metadata out. When @p placements is non-null, each manifest
     * chunk's (content hash, owning shard) is appended, read right
     * after that chunk's dedup check and upload.
     */
    sim::Task<void>
    stage(const std::string &name, const StagePayload &payload,
          std::vector<std::pair<std::uint64_t, int>> *placements =
              nullptr);

    /**
     * Re-record + delta re-stage @p name (the function's code was
     * updated): invalidate the record fleet-wide, re-record on the
     * home worker, then stage the new version against the previous
     * one's still-referenced chunks — unchanged chunks dedup-hit and
     * never cross the wire again; only the churned delta uploads. The
     * previous version's references release once the delta lands, and
     * the new metadata fans out to every worker. Must already be
     * staged; a caller racing an in-flight (re)staging waits for it.
     */
    sim::Task<void> restage(const std::string &name);

    /**
     * Fleet-wide GC of @p name (the function is being retired):
     * release every shared-chunk reference its staged manifests hold
     * and forget the staging record. Chunks no other function
     * references drop out of the index — their bytes are reclaimed
     * (or, under a refcount-protected budget, retained as evictable
     * pool). Workers' own records are the caller's to retire
     * (Cluster::retireFunction does both). No-op when never staged.
     */
    void retire(const std::string &name);

    /** Functions retired (GC'd) so far. */
    std::int64_t retires() const { return _retires; }

    /** Stored bytes retire() reclaimed from the shared index. */
    Bytes gcReleasedBytes() const { return _gcReleasedBytes; }

    /** Whether @p name has been staged. */
    bool isStaged(const std::string &name) const;

    /** Staging record for @p name (must be staged or staging). */
    const StagedArtifact &artifact(const std::string &name) const;

    /** Every staging record (staged or in flight), in name order. */
    auto
    artifacts() const
    {
        return entries | std::views::values |
               std::views::transform(&Entry::art);
    }

    /** Deterministic home worker for @p name (hash on the ring). */
    int homeWorkerFor(const std::string &name) const;

    /** Called by the front-end when a cold start on @p worker pulled
     * the artifact through the remote tier. */
    void noteRemoteFetch(const std::string &name, int worker);

    /** Sum of builds across functions (one each when sharing works). */
    std::int64_t totalBuilds() const;

    /** Sum of staged bytes across functions. */
    Bytes totalStagedBytes() const;

    /**
     * The fleet staged-chunk index (chunked staging): every distinct
     * chunk in the shared store, refcounted by referencing manifests.
     * Referenced chunks are shielded from the registryChunkBudget;
     * zero-ref chunks left behind by retire() or restage() are the
     * evictable pool.
     */
    const storage::ChunkStore &chunkIndex() const
    {
        return sharedChunks;
    }

    /**
     * Install a fault plan on staging passes; specs are matched
     * against "staging/<function>". A StagingOutage window stalls
     * staging work entering it; a WorkerCrash aborts the staging
     * pass mid-flight — chunk references taken by the aborted attempt
     * are released (the index rolls back) and the pass retries, so a
     * function is still staged exactly once. Null detaches; the plan
     * is borrowed and must outlive the registry.
     */
    void setFaultPlan(sim::FaultPlan *plan) { faults = plan; }

  private:
    struct Entry
    {
        StagedArtifact art;
        bool staging = false;
        std::unique_ptr<sim::Gate> done;

        /**
         * The staged version's manifests (chunked staging only): the
         * references the shared index holds on this function's
         * behalf, released by retire() or — after the delta lands —
         * by restage().
         */
        std::shared_ptr<const vmm::SnapshotManifests> stagedManifests;
    };

    /**
     * Take @p name's first staging pass through the single-flight
     * gate and any staging outage. @return whether this caller owns
     * the pass (false: already staged, or another caller's pass
     * completed while this one waited).
     */
    sim::Task<bool> claim(const std::string &name);

    /** Stall while a StagingOutage window covers @p name. */
    sim::Task<void> waitOutOutage(const std::string &name);

    /**
     * The upload core of every staging pass, with crash-retry:
     * upload @p p for @p e (chunk-deduplicated against the fleet
     * index when it carries manifests, one blob put() otherwise) and
     * fold the pass — its builds included — into @p e's counters.
     */
    sim::Task<void>
    upload(const std::string &name, Entry &e, const StagePayload &p,
           std::vector<std::pair<std::uint64_t, int>> *placements);

    /** Hand @p p's metadata to every in-domain worker. */
    void fanOut(const std::string &name, const StagePayload &p);

    /** Mark @p e staged as @p p's version and wake its waiters. */
    void finish(Entry &e, const StagePayload &p);

    sim::Simulation &sim;
    net::ArtifactStore &store;
    const std::vector<std::unique_ptr<core::Worker>> *fleet;
    int workerCount;
    core::ColdStartMode mode;
    std::map<std::string, Entry> entries;
    storage::ChunkStore sharedChunks;

    /** Installed fault plan (borrowed; null = fault-free). */
    sim::FaultPlan *faults = nullptr;

    /** @name GC accounting (retire()). */
    /// @{
    std::int64_t _retires = 0;
    Bytes _gcReleasedBytes = 0;
    /// @}
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_SNAPSHOT_REGISTRY_HH

/**
 * @file
 * S3-like object store model. Functions with large inputs (photos,
 * JSON documents, training sets, videos) retrieve them from a MinIO
 * server deployed on the same host (Sec. 6.1); the same model, with
 * remote() parameters, stands in for disaggregated snapshot storage
 * over the datacenter network (Sec. 7.1).
 *
 * Each request pays a network round trip plus a fixed service cost,
 * then streams at the per-stream rate. When concurrentStreams bounds
 * the link, transfers queue FIFO for a stream slot, so many concurrent
 * small GETs expose the per-request costs the paper's Sec. 7.1
 * argument hinges on.
 */

#ifndef VHIVE_NET_OBJECT_STORE_HH
#define VHIVE_NET_OBJECT_STORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive::net {

/**
 * Routing hint attached to every artifact-store operation. A sharded
 * store uses it to pick a shard; a single store ignores it. `content`
 * identifies the object (chunk hash or name hash) and drives hash
 * placement; `scope` groups related objects (all chunks of one
 * function) so overlap-aware placement can prefer co-location.
 * A default-constructed key routes to shard 0, which keeps every
 * existing single-store call site bit-identical.
 */
struct PlacementKey
{
    std::uint64_t content = 0;
    std::uint64_t scope = 0;
};

/** Stable name hash for building placement keys (FNV-1a). */
std::uint64_t placementScope(std::string_view name);

/** Object-store transfer cost constants. */
struct ObjectStoreParams
{
    /** Per-request fixed cost (HTTP + auth + lookup). */
    Duration requestOverhead = msec(2);

    /** Network round trip paid before the first byte (0 = same host). */
    Duration rtt = 0;

    /** Per-stream transfer rate (bytes/sec). */
    double bandwidth = 200e6;

    /**
     * Transfer streams the store serves concurrently; additional
     * requests queue FIFO. 0 = unbounded (same-host loopback).
     */
    int concurrentStreams = 0;

    /**
     * Disaggregated storage service reached over the datacenter
     * fabric (Sec. 7.1): a real round trip per request, the same
     * S3-like service overhead and per-stream backend rate as the
     * loopback deployment, and a bounded number of concurrent
     * transfer streams. Note the bound is the only aggregate
     * throttle — there is no shared-link bandwidth cap beyond
     * streams x per-stream rate.
     */
    static ObjectStoreParams remote();
};

/** Statistics for the store. */
struct ObjectStoreStats
{
    std::int64_t gets = 0;
    std::int64_t puts = 0;

    /** Subset of gets that were ranged (HTTP Range) requests. */
    std::int64_t rangedGets = 0;

    Bytes bytesServed = 0;
    Bytes bytesStored = 0;

    /**
     * @name Chunked (content-addressed) transfer counters. Chunk
     * traffic moves compressed bytes, so bytesServed/bytesStored show
     * what actually crossed the wire while the chunk counters show how
     * many content-addressed pieces it was batched into.
     */
    /// @{

    /** putChunk() uploads (one per newly stored chunk). */
    std::int64_t chunkPuts = 0;

    /** Batched ranged GETs issued by getChunks(). */
    std::int64_t chunkBatches = 0;

    /** Chunks served across all getChunks() batches. */
    std::int64_t chunksServed = 0;
    /// @}

    /**
     * Stream contention (bounded links only): transfers that had to
     * queue for a stream slot, the total simulated time they spent
     * queued, and the deepest queue observed. At fleet scale these are
     * the data-plane contention signal Sec. 7.1 hints at — many
     * workers cold-starting through one disaggregated store.
     */
    std::int64_t streamWaits = 0;
    Duration streamWaitTime = 0;
    std::int64_t peakStreamQueue = 0;

    /**
     * Injected-fault visibility (zero without a FaultPlan): requests
     * that paid at least one mid-stream error retry, and transfers
     * stalled by a store outage window. Latency-shaping faults
     * (storms, stragglers) count in the plan's FaultStats only.
     */
    std::int64_t requestRetries = 0;
    std::int64_t outageStalls = 0;

    /**
     * Fold @p other into these counters: every counter is summed
     * except peakStreamQueue, which keeps the deeper of the two queues.
     */
    void merge(const ObjectStoreStats &other);
};

/**
 * Abstract artifact-store surface: the five operations every snapshot
 * consumer (loaders, page sources, the fleet registry) issues. Each
 * op carries an optional PlacementKey; implementations with a single
 * backend ignore it, sharded ones route on it. shardOf()/shardCount()
 * let consumers group requests per shard (batch locality) without
 * knowing the topology.
 */
class ArtifactStore
{
  public:
    virtual ~ArtifactStore() = default;

    /** Fetch an object of @p bytes; completes when fully received. */
    virtual sim::Task<void> get(Bytes bytes, PlacementKey key = {}) = 0;

    /** Ranged GET (HTTP Range) of @p bytes at @p offset. */
    virtual sim::Task<void> getRange(Bytes offset, Bytes bytes,
                                     PlacementKey key = {}) = 0;

    /** Store an object of @p bytes; completes when fully durable. */
    virtual sim::Task<void> put(Bytes bytes, PlacementKey key = {}) = 0;

    /** Store one content-addressed chunk (compressed size). */
    virtual sim::Task<void> putChunk(Bytes stored_bytes,
                                     PlacementKey key = {}) = 0;

    /**
     * One batched ranged GET serving @p chunks content-addressed
     * chunks totalling @p stored_bytes compressed bytes.
     */
    virtual sim::Task<void> getChunks(std::int64_t chunks,
                                      Bytes stored_bytes,
                                      PlacementKey key = {}) = 0;

    /** Shard @p key routes to (always 0 for unsharded stores). */
    virtual int shardOf(PlacementKey key) const
    {
        (void)key;
        return 0;
    }

    /** Number of shards behind this surface. */
    virtual int shardCount() const { return 1; }
};

/**
 * An object store (MinIO / S3 stand-in). Objects are identified by
 * size only; contents are irrelevant to the latency model.
 */
class ObjectStore : public ArtifactStore
{
  public:
    ObjectStore(sim::Simulation &sim,
                ObjectStoreParams params = ObjectStoreParams{});

    ObjectStore(const ObjectStore &) = delete;
    ObjectStore &operator=(const ObjectStore &) = delete;

    /** Fetch an object of @p bytes; completes when fully received. */
    sim::Task<void> get(Bytes bytes, PlacementKey key = {}) override;

    /**
     * Ranged GET (HTTP Range): fetch @p bytes at @p offset of a stored
     * object. Pays the same per-request round trip, service cost and
     * stream-slot admission as get() — position is free, requests are
     * not — which is exactly what makes the windowed-fetch sweet spot
     * a real trade-off (request overhead x windows vs per-stream
     * bandwidth x in-flight windows).
     */
    sim::Task<void> getRange(Bytes offset, Bytes bytes,
                             PlacementKey key = {}) override;

    /** Store an object of @p bytes; completes when fully durable. */
    sim::Task<void> put(Bytes bytes, PlacementKey key = {}) override;

    /**
     * Store one content-addressed chunk of @p stored_bytes (its
     * compressed size). Same cost structure as put(); counted
     * separately so dedup experiments can see uploads avoided.
     */
    sim::Task<void> putChunk(Bytes stored_bytes,
                             PlacementKey key = {}) override;

    /**
     * One batched ranged GET serving @p chunks content-addressed
     * chunks totalling @p stored_bytes compressed bytes: a single
     * multi-range request pays the round trip, service cost and
     * stream-slot admission once, then streams the compressed bytes.
     * Batching is what keeps chunked transfer from collapsing into the
     * per-page-GET regime Sec. 7.1 warns about; decompression is
     * charged by the consumer (mem::ChunkPageSource), not the store.
     */
    sim::Task<void> getChunks(std::int64_t chunks, Bytes stored_bytes,
                              PlacementKey key = {}) override;

    const ObjectStoreParams &params() const { return _params; }
    const ObjectStoreStats &stats() const { return _stats; }
    void resetStats() { _stats = ObjectStoreStats{}; }

    /**
     * Install a fault plan on this store's request path; @p tag is the
     * registry key the plan's specs are matched against (convention:
     * "store/shared", "store/worker/<i>"). Null detaches. The plan is
     * borrowed and must outlive the store (or be detached first);
     * without one, transfer() takes the historical fast path,
     * bit-identical to builds before fault injection existed.
     */
    void
    setFaultPlan(sim::FaultPlan *plan, std::string tag = "store")
    {
        faults = plan;
        faultTag = std::move(tag);
    }

    /** The installed fault plan (null = none). */
    sim::FaultPlan *faultPlan() { return faults; }

  private:
    /** Shared request path: round trip, service cost, streaming. */
    sim::Task<void> transfer(Bytes bytes);

    sim::Simulation &sim;
    ObjectStoreParams _params;
    ObjectStoreStats _stats;

    /** Stream slots when the link is bounded (null = unbounded). */
    std::unique_ptr<sim::Semaphore> streams;

    /** Installed fault plan (borrowed; null = fault-free). */
    sim::FaultPlan *faults = nullptr;

    /** Registry key this store's hooks roll faults under. */
    std::string faultTag = "store";
};

} // namespace vhive::net

#endif // VHIVE_NET_OBJECT_STORE_HH

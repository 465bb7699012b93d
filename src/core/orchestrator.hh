/**
 * @file
 * The vHive-CRI orchestrator (Sec. 3.2, 5.2): controls the lifecycle
 * of all function instances on one worker, acts as the data-plane
 * router holding persistent gRPC connections to instances (the AWS
 * MicroManager role, Sec. 4.1), and routes cold starts to the
 * SnapshotLoader registered for the requested mode. The cold-start
 * strategies themselves live in core/loader/ — the orchestrator only
 * does admission, warm routing, loader dispatch, and instance
 * lifecycle.
 */

#ifndef VHIVE_CORE_ORCHESTRATOR_HH
#define VHIVE_CORE_ORCHESTRATOR_HH

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/function_state.hh"
#include "core/loader/loader.hh"
#include "core/options.hh"
#include "core/ws_file.hh"
#include "func/profile.hh"
#include "func/trace_gen.hh"
#include "host/cpu_pool.hh"
#include "mem/chunk_source.hh"
#include "mem/tier_budget.hh"
#include "mem/uffd.hh"
#include "net/object_store.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/chunk_store.hh"
#include "storage/file_store.hh"
#include "vmm/microvm.hh"
#include "vmm/snapshot.hh"

namespace vhive::core {

/**
 * Orchestrates function instances on a single worker host.
 */
class Orchestrator
{
  public:
    /**
     * @param object_store Serves function *input* payloads (the
     * MinIO-on-the-same-host role, Sec. 6.1).
     * @param artifact_store Serves snapshot/WS artifact staging and
     * remote cold-start fetches; null = use @p object_store for both
     * (the single-store historical wiring). The cluster layer passes
     * the fleet-shared store here so artifact traffic and input
     * traffic stop sharing one service.
     */
    Orchestrator(sim::Simulation &sim, storage::FileStore &fs,
                 host::CpuPool &host_cpus, host::CpuPool &orch_cpus,
                 net::ObjectStore &object_store,
                 const func::TraceGenerator &gen,
                 vmm::VmmParams vmm_params = vmm::VmmParams{},
                 ReapOptions reap = ReapOptions{},
                 mem::UffdParams uffd_params = mem::UffdParams{},
                 net::ArtifactStore *artifact_store = nullptr);

    /**
     * Bound the worker's instance memory (Sec. 4.3: colocation makes
     * memory the scarce resource). Before a cold start exceeds the
     * budget, the least-recently-used idle instance is deallocated;
     * 0 disables the bound (default).
     */
    void setMemoryCapacity(Bytes capacity) { memoryCapacity = capacity; }

    /** Idle instances evicted to satisfy the memory bound. */
    std::int64_t capacityEvictions() const { return _capacityEvictions; }

    Orchestrator(const Orchestrator &) = delete;
    Orchestrator &operator=(const Orchestrator &) = delete;

    /** Register a function for deployment. */
    void registerFunction(const func::FunctionProfile &profile);

    /**
     * Boot a VM, let it fully initialize, and capture its snapshot
     * (done once per function, off the invocation path).
     */
    sim::Task<void> prepareSnapshot(const std::string &name);

    /** Snapshots actually built on this worker (prepareSnapshot). */
    std::int64_t snapshotBuilds() const { return _snapshotBuilds; }

    /**
     * Adopt snapshot/WS artifacts another worker built and staged into
     * the shared object store (cluster::SnapshotRegistry fan-out).
     * Control-plane metadata only — no simulated time passes: the
     * local file entries are created at the staged sizes, the record
     * is shared, and `FunctionState::artifactsLocal` stays false so
     * the first cold start pulls the bytes through the remote tier
     * (TieredReap) or bulk GETs (RemoteReap). On the worker that built
     * and recorded the artifacts this only marks them remote-staged.
     */
    void adoptStagedArtifacts(
        const std::string &name, const WorkingSetRecord &record,
        std::shared_ptr<const vmm::SnapshotManifests> manifests =
            nullptr);

    /**
     * Serve one invocation of @p name. Routes to an idle warm instance
     * when possible, otherwise dispatches the SnapshotLoader registered
     * for @p mode. When a record-requiring mode lacks a recorded
     * working set, this invocation becomes the record phase
     * (Sec. 5.2.1).
     */
    sim::Task<LatencyBreakdown> invoke(const std::string &name,
                                       ColdStartMode mode,
                                       InvokeOptions opts = InvokeOptions());

    /**
     * Control-plane pre-warm: run @p mode's cold path with
     * InvokeOptions::warmupOnly — restore, install the working set,
     * resume — but serve no invocation, leaving the instance warm and
     * idle. No-op when an idle or warming instance already exists. An
     * invoke() arriving while the pre-warm is mid-flight waits on the
     * instance's ready gate and lands warm (a partially-warmed start).
     */
    sim::Task<LatencyBreakdown> preWarm(const std::string &name,
                                        ColdStartMode mode);

    /**
     * Control-plane chunk/artifact prefetch: warm this worker's caches
     * for @p name in the background without starting an instance.
     * Content-addressed functions fetch their missing WS-manifest
     * chunks (ChunkPageSource::prefetchMissing, paced); blob-staged
     * functions without a local artifact copy background-fetch the WS
     * object through the tiered admission path. Requires a recorded
     * working set (no-op otherwise). @p pin_until, when >= 0, shields
     * the prefetched bytes from budget eviction (PrefetchPinned
     * policy) until the predicted window passes. @return bytes moved.
     */
    sim::Task<Bytes> backgroundPrefetch(const std::string &name,
                                        Time pin_until = -1);

    /** Instances of @p name with a pre-warm currently in flight. */
    std::int64_t warmingCount(const std::string &name) const;

    /** Pre-warmed instances retired without ever serving. */
    std::int64_t wastedPreWarms() const { return _wastedPreWarms; }

    /** Resident bytes held by idle (warm, not busy) instances. */
    Bytes idleResidentBytes() const;

    /** Idle (warm, not busy) instances across all functions. */
    std::int64_t idleInstanceTotal() const;

    /** Gracefully stop and reclaim all instances of @p name. */
    sim::Task<void> stopAllInstances(const std::string &name);

    /**
     * Stop only the idle instances of @p name, leaving busy ones to
     * finish their in-flight invocations. This is the autoscaler's
     * scale-down primitive: the keep-alive janitor may fire while an
     * invocation is mid-flight, and reclaiming the busy instance under
     * it would be a use-after-free in a real control plane (and an
     * assertion failure here). @return instances stopped.
     */
    sim::Task<std::int64_t> stopIdleInstances(const std::string &name);

    /** Number of live (warm) instances of @p name. */
    std::int64_t instanceCount(const std::string &name) const;

    /** Number of live idle instances of @p name. */
    std::int64_t idleInstanceCount(const std::string &name) const;

    /** Resident footprints of all live instances of @p name. */
    std::vector<Bytes>
    instanceFootprints(const std::string &name) const;

    /** Whether a working-set record exists for @p name. */
    bool hasRecord(const std::string &name) const;

    /** Whether @p name's artifacts have a valid local-SSD copy. */
    bool artifactsLocal(const std::string &name) const;

    /** Recorded working set (must exist). */
    const WorkingSetRecord &record(const std::string &name) const;

    /**
     * Build (once) and return @p name's chunk manifests under this
     * worker's chunking knobs. Requires a recorded working set.
     */
    const vmm::SnapshotManifests &
    buildManifests(const std::string &name);

    /** @p name's chunk manifests; null until built. */
    std::shared_ptr<const vmm::SnapshotManifests>
    manifests(const std::string &name) const;

    /**
     * Fraction of @p name's WS-manifest chunks resident in this
     * worker's chunk cache — the locality signal chunk-aware routing
     * weighs. Falls back to artifactsLocal (0 or 1) for functions
     * without manifests (non-chunked modes).
     */
    double chunkResidency(const std::string &name) const;

    /**
     * Worker-resident chunk cache, shared across functions (chunks
     * pulled remotely by any cold start are served locally after).
     */
    storage::ChunkStore &localChunkCache() { return _localChunks; }
    const storage::ChunkStore &localChunkCache() const
    {
        return _localChunks;
    }

    /** Staged-chunk index of this worker's own object store. */
    storage::ChunkStore &stagedChunkIndex() { return _stagedChunks; }
    const storage::ChunkStore &stagedChunkIndex() const
    {
        return _stagedChunks;
    }

    /**
     * Invalidate the record so the next cold start re-records. The
     * current manifests (if any) are retained as the *previous*
     * version — with their staged-chunk references still held — so the
     * re-record's staging can diff against them and move only the
     * changed chunks (delta manifests); the old references release
     * once the delta lands.
     */
    void invalidateRecord(const std::string &name);

    /**
     * Retire @p name's record for good (fleet GC): release every
     * staged-chunk reference the current and previous manifests hold,
     * drop the local artifact copy, and reset the record version. The
     * caller must have stopped the function's instances first (no
     * cold start may be in flight). Unlike invalidateRecord, nothing
     * is kept for delta diffing — the function is gone.
     */
    void retireRecord(const std::string &name);

    /**
     * Enforce the local-SSD artifact budget (ReapOptions::ssdBudget):
     * while the summed artifact bytes of functions with a local copy
     * exceed the budget, evict the policy's victim via
     * evictLocalArtifacts. Functions mid-cold-start, or whose only
     * copy is local (never remote-staged), are never evicted. Called
     * after every cold start; also callable directly by tests.
     */
    void enforceSsdBudget(Time now);

    /** Local-SSD artifact copies evicted by the SSD budget. */
    std::int64_t ssdEvictions() const { return _ssdEvictions; }

    /** High-water mark of summed local artifact bytes. */
    Bytes peakSsdBytes() const { return _peakSsdBytes; }

    /** The worker's page-cache tier budget tracker. */
    mem::TierCacheBudget &tierBudget() { return _tierBudget; }
    const mem::TierCacheBudget &tierBudget() const
    {
        return _tierBudget;
    }

    /**
     * Drop the local-SSD copy of @p name's snapshot artifacts (the
     * record itself stays valid). Models a fresh worker whose only
     * copy lives in the remote store, or local artifact GC; the next
     * tiered cold start falls through to the remote tier and
     * re-admits the bytes locally.
     */
    void evictLocalArtifacts(const std::string &name);

    /** Aggregate stats for @p name. */
    const FunctionStats &stats(const std::string &name) const;

    /** Drop the host page cache (cold-invocation methodology). */
    void flushHostCaches();

    /**
     * Sum of resident footprints of all live instances across all
     * functions — the worker's memory commitment (Sec. 4.3).
     */
    Bytes totalResidentBytes() const;

    const ReapOptions &reapOptions() const { return reap; }
    ReapOptions &reapOptions() { return reap; }

    /**
     * The cold-start strategy registry — the extension point: swap a
     * built-in loader or install one for a new mode here.
     */
    loader::LoaderRegistry &loaders() { return _loaders; }
    const loader::LoaderRegistry &loaders() const { return _loaders; }

    /**
     * Install a fault plan on this worker's cold-start path; @p tag
     * is the registry key WorkerCrash specs are matched against
     * (convention: "worker/<i>"). A cold start rolled inside an
     * active crash window pays the window's magnitude in milliseconds
     * of lost work, tears its instance down, and returns a breakdown
     * with crashed set — the cluster layer retries elsewhere. Null
     * detaches; the plan is borrowed and must outlive the
     * orchestrator (or be detached first).
     */
    void
    setFaultPlan(sim::FaultPlan *plan, std::string tag = "worker")
    {
        faults = plan;
        faultTag = std::move(tag);
    }

    /** The installed fault plan (null = none). */
    sim::FaultPlan *faultPlan() { return faults; }

  private:
    FunctionState &state(const std::string &name);
    const FunctionState &state(const std::string &name) const;

    /** The next input in @p st's sequence (Sec. 4.4: distinct ids
     * model distinct inputs). */
    static std::int64_t pickInput(FunctionState &st);

    sim::Task<LatencyBreakdown>
    invokeWarm(FunctionState &st, Instance &inst,
               const func::InvocationTrace &trace);

    /**
     * Retire @p inst (stop monitor, destroy VM): mark it stopping,
     * run the uffd shutdown handshake, then erase it by identity —
     * the instance vector may shift while the handshake suspends.
     */
    sim::Task<void> stopInstance(FunctionState &st, Instance &inst);

    /** Whether @p inst can serve a warm invocation right now. */
    static bool servesWarm(const Instance &inst);

    /** Allocate a fresh Instance slot for @p st. */
    Instance &createInstance(FunctionState &st);

    /**
     * Evict LRU idle instances until @p needed more bytes fit under
     * the capacity bound (best effort; busy instances are never
     * evicted).
     */
    sim::Task<void> makeRoom(Bytes needed);

    sim::Simulation &sim;
    storage::FileStore &fs;
    host::CpuPool &hostCpus;
    host::CpuPool &orchCpus;
    net::ObjectStore &objectStore;
    net::ArtifactStore &artifactStore;
    const func::TraceGenerator &gen;
    vmm::VmmParams vmmParams;
    ReapOptions reap;
    mem::UffdParams uffdParams;
    loader::LoaderRegistry _loaders;
    std::map<std::string, FunctionState> functions;
    storage::ChunkStore _localChunks;
    storage::ChunkStore _stagedChunks;
    mem::ChunkFlights _chunkFlights;
    mem::TierCacheBudget _tierBudget;
    Bytes memoryCapacity = 0;

    /** Installed fault plan (borrowed; null = fault-free). */
    sim::FaultPlan *faults = nullptr;

    /** Registry key crash faults are rolled under. */
    std::string faultTag = "worker";

    std::int64_t _capacityEvictions = 0;
    std::int64_t _snapshotBuilds = 0;
    std::uint64_t _nextInstanceId = 0;
    std::int64_t _wastedPreWarms = 0;
    std::int64_t _ssdEvictions = 0;
    Bytes _peakSsdBytes = 0;

    /** Recency counter feeding FunctionState::artifactLruSeq. */
    std::uint64_t _artifactLru = 0;

    /** Functions with a background prefetch in flight (single-flight). */
    std::set<std::string> _bgPrefetching;

    /** Control-plane CPU cost of handling one cold start. */
    static constexpr Duration kControlPlaneCost = msec(2);
};

} // namespace vhive::core

#endif // VHIVE_CORE_ORCHESTRATOR_HH

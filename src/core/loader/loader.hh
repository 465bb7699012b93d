/**
 * @file
 * The SnapshotLoader layer: one strategy object per ColdStartMode,
 * dispatched by the Orchestrator through a small registry. This is the
 * system's main extension point — the Fig. 7 design walk
 * (BootFromScratch -> VanillaSnapshot -> ParallelPageFaults ->
 * WsFileCached -> Reap) plus the Sec. 7.1 remote-storage scenario are
 * each a ~100-line loader composing the PageFetchPipeline, and further
 * restore strategies (background warming, tiered sources, batching
 * policies) drop in the same way.
 */

#ifndef VHIVE_CORE_LOADER_LOADER_HH
#define VHIVE_CORE_LOADER_LOADER_HH

#include <map>
#include <memory>
#include <vector>

#include "core/function_state.hh"
#include "core/options.hh"
#include "func/trace_gen.hh"
#include "host/cpu_pool.hh"
#include "mem/chunk_source.hh"
#include "mem/tier_budget.hh"
#include "mem/uffd.hh"
#include "net/object_store.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/chunk_store.hh"
#include "storage/file_store.hh"
#include "vmm/snapshot.hh"

namespace vhive::core::loader {

/**
 * Everything a loader may touch while performing one cold start:
 * simulation handles, the worker's I/O and compute resources, the
 * function's state, and the instance slot being brought up. Holds
 * references only; cheap to copy into a loader's coroutine frame.
 */
struct LoadContext
{
    sim::Simulation &sim;
    storage::FileStore &fs;
    host::CpuPool &hostCpus;
    net::ObjectStore &objectStore;
    const func::TraceGenerator &gen;
    const vmm::VmmParams &vmmParams;
    ReapOptions &reap;
    const mem::UffdParams &uffdParams;
    FunctionState &st;
    Instance &inst;
    const func::InvocationTrace &trace;
    const InvokeOptions &opts;

    /**
     * Worker-resident chunk cache, shared across functions: chunks any
     * cold start pulled remotely are served locally afterwards — also
     * for *other* functions whose manifests share them (DedupReap).
     */
    storage::ChunkStore &localChunks;

    /**
     * Store-side staged-chunk index of the object store this worker
     * stages into: records which content hashes were already uploaded
     * so duplicate chunks are put() exactly once.
     */
    storage::ChunkStore &stagedChunks;

    /**
     * The store snapshot/WS artifacts stage into and cold starts
     * fetch from (fleet-shared under cross-worker sharing). Input
     * payloads keep flowing through objectStore — the two roles are
     * distinct services in a real deployment.
     */
    net::ArtifactStore &artifactStore;

    /**
     * Worker-wide chunk single-flight table: concurrent cold starts
     * needing the same in-flight chunk wait for the one transfer
     * instead of duplicating it or seeing it as already resident.
     */
    mem::ChunkFlights &chunkFlights;

    /**
     * Worker-wide page-cache tier budget (null = untracked). Tiered
     * chains register their WS file here and report admissions and
     * serves so the budget can account — and, when non-zero, shed —
     * the warm-tier bytes tiered admission created.
     */
    mem::TierCacheBudget *tierBudget = nullptr;
};

/**
 * One cold-start strategy. A loader receives a LoadContext, brings the
 * instance to Running, serves the invocation, and returns the latency
 * segments it owns. Loaders are stateless across invocations; all
 * persistent state lives in the FunctionState.
 */
class SnapshotLoader
{
  public:
    virtual ~SnapshotLoader() = default;

    /** Mode name as reported in benches and diagnostics. */
    virtual const char *name() const = 0;

    /** Whether the mode requires a prepared snapshot. */
    virtual bool needsSnapshot() const { return true; }

    /**
     * Whether the mode requires a recorded working set. When true and
     * none exists, the invocation becomes the record phase
     * (Sec. 5.2.1) via the registry's record loader.
     */
    virtual bool needsRecord() const { return false; }

    /**
     * Expected residency of the new instance, used by the worker's
     * memory-capacity admission (Sec. 4.3).
     */
    virtual Bytes
    expectedResidency(const FunctionState &st) const
    {
        return st.profile.workingSet;
    }

    /** Perform the cold start and serve @p ctx.trace. */
    virtual sim::Task<LatencyBreakdown> load(LoadContext ctx) = 0;
};

/**
 * Maps each ColdStartMode to its loader. Built-ins are installed at
 * construction; registerLoader() swaps any of them for a custom
 * strategy (the extension path — no orchestrator changes needed).
 */
class LoaderRegistry
{
  public:
    LoaderRegistry();

    LoaderRegistry(const LoaderRegistry &) = delete;
    LoaderRegistry &operator=(const LoaderRegistry &) = delete;

    /** Loader for @p mode; fatals when none is registered. */
    SnapshotLoader &loaderFor(ColdStartMode mode) const;

    /** Loader for @p mode, or nullptr when none is registered. */
    SnapshotLoader *find(ColdStartMode mode) const;

    /** Install (or replace) the loader behind @p mode. */
    void registerLoader(ColdStartMode mode,
                        std::unique_ptr<SnapshotLoader> loader);

    /**
     * The shared record-phase loader, run when a needsRecord() mode
     * has no working-set record yet.
     */
    SnapshotLoader &recordLoader() const { return *_recordLoader; }

    /** All registered modes, in enum order. */
    std::vector<ColdStartMode> modes() const;

  private:
    std::map<ColdStartMode, std::unique_ptr<SnapshotLoader>> loaders;
    std::unique_ptr<SnapshotLoader> _recordLoader;
};

} // namespace vhive::core::loader

#endif // VHIVE_CORE_LOADER_LOADER_HH

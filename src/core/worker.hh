/**
 * @file
 * A complete worker host: disk, file store, CPU pools, object store,
 * trace generator and the vHive-CRI orchestrator, wired together with
 * the paper's evaluation-platform defaults (Sec. 6.1: 2x24-core Xeon,
 * 256 GB RAM, Intel SATA3 SSD). Benchmarks and examples construct one
 * Worker (or several, via the cluster module) and drive it.
 */

#ifndef VHIVE_CORE_WORKER_HH
#define VHIVE_CORE_WORKER_HH

#include <cstdint>

#include "core/options.hh"
#include "core/orchestrator.hh"
#include "func/trace_gen.hh"
#include "host/cpu_pool.hh"
#include "mem/uffd.hh"
#include "net/object_store.hh"
#include "sim/simulation.hh"
#include "storage/disk.hh"
#include "storage/file_store.hh"
#include "vmm/snapshot.hh"

namespace vhive::core {

/** Everything configurable about a worker host. */
struct WorkerConfig
{
    /** Root seed for all workload synthesis on this worker. */
    std::uint64_t seed = 0x76686976; // "vhiv"

    /** Snapshot storage device. */
    storage::DiskParams disk = storage::DiskParams::ssd();

    /** Host I/O path calibration. */
    storage::IoPathParams io{};

    /** Hypervisor cost constants. */
    vmm::VmmParams vmm{};

    /** userfaultfd cost constants. */
    mem::UffdParams uffd{};

    /** Object store (function inputs). */
    net::ObjectStoreParams objectStore{};

    /** REAP knobs. */
    ReapOptions reap{};

    /**
     * Worker memory budget for function instances (0 = unlimited).
     * When bound, cold starts evict LRU idle instances (Sec. 4.3).
     */
    Bytes instanceMemoryCapacity = 0;
};

/**
 * One worker host. Construction order matters: the simulation must be
 * declared before (and thus destroyed after) the Worker so detached
 * monitor tasks are reclaimed safely.
 */
class Worker
{
  public:
    /**
     * @param shared_store When non-null, the worker's loaders stage
     * and fetch snapshot/WS *artifacts* through this fleet-shared
     * store (one disaggregated service serving every worker,
     * Sec. 7.1). Function *input* payloads always flow through the
     * worker-private store — the two roles are distinct services in a
     * real deployment, and conflating them would let input traffic
     * masquerade as artifact bytes moved. The cluster layer passes
     * its shared store here when cross-worker snapshot sharing is
     * enabled.
     */
    explicit Worker(sim::Simulation &sim,
                    WorkerConfig config = WorkerConfig{},
                    net::ArtifactStore *shared_store = nullptr);

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    Orchestrator &orchestrator() { return orch; }
    storage::DiskDevice &disk() { return _disk; }
    storage::FileStore &fileStore() { return fs; }
    host::CpuPool &hostCpus() { return _hostCpus; }

    /** The worker-private store (inputs; artifacts too standalone). */
    net::ObjectStore &objectStore() { return s3; }

    /** The store artifacts stage into (shared one when given). */
    net::ArtifactStore &artifactStore() { return *artifacts; }

    const WorkerConfig &config() const { return cfg; }

  private:
    sim::Simulation &sim;
    WorkerConfig cfg;
    storage::DiskDevice _disk;
    storage::FileStore fs;
    host::CpuPool _hostCpus;
    host::CpuPool _orchCpus;
    net::ObjectStore s3;
    /** Points at s3, or at the fleet-shared store when one was given. */
    net::ArtifactStore *artifacts;
    func::TraceGenerator gen;
    Orchestrator orch;
};

} // namespace vhive::core

#endif // VHIVE_CORE_WORKER_HH

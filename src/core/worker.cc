#include "core/worker.hh"

namespace vhive::core {

namespace {

/** Logical cores of the paper's 2x24-core evaluation host (Sec. 6.1). */
constexpr int kHostCores = 48;

/** Hardware threads for orchestrator goroutines (Sec. 6.2). */
constexpr int kOrchestratorThreads = 16;

/** Seek-heavy devices get kernel fault-path readahead (Sec. 6.3). */
storage::IoPathParams
ioForDisk(const WorkerConfig &cfg)
{
    storage::IoPathParams io = cfg.io;
    if (cfg.disk.seekLatency > 0 && io.faultReadahead == 0)
        io.faultReadahead = 48 * kKiB;
    return io;
}

} // namespace

Worker::Worker(sim::Simulation &sim, WorkerConfig config,
               net::ArtifactStore *shared_store)
    : sim(sim), cfg(config), _disk(sim, cfg.disk),
      fs(sim, _disk, ioForDisk(cfg)),
      _hostCpus(sim, kHostCores), _orchCpus(sim, kOrchestratorThreads),
      s3(sim, cfg.objectStore),
      artifacts(shared_store != nullptr ? shared_store : &s3),
      gen(cfg.seed),
      orch(sim, fs, _hostCpus, _orchCpus, s3, gen, cfg.vmm,
           cfg.reap, cfg.uffd, artifacts)
{
    if (cfg.instanceMemoryCapacity > 0)
        orch.setMemoryCapacity(cfg.instanceMemoryCapacity);
}

} // namespace vhive::core

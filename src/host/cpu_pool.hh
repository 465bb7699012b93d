/**
 * @file
 * Host CPU model: a pool of cores shared by simulated computations.
 * The evaluation platform is a 2x24-core Xeon (48 logical cores), with
 * 16 hardware threads made available to orchestrator goroutines
 * (Sec. 6.2), so contention matters for the Fig. 9 concurrency sweep.
 */

#ifndef VHIVE_HOST_CPU_POOL_HH
#define VHIVE_HOST_CPU_POOL_HH

#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive::host {

/**
 * A bank of CPU cores. exec() occupies one core for a given amount of
 * CPU time; callers queue FIFO when all cores are busy.
 */
class CpuPool
{
  public:
    CpuPool(sim::Simulation &sim, int cores)
        : sim(sim), _cores(cores), sem(sim, cores)
    {
    }

    CpuPool(const CpuPool &) = delete;
    CpuPool &operator=(const CpuPool &) = delete;

    /** Run @p cpu_time of work on one core (queueing if none free). */
    sim::Task<void> exec(Duration cpu_time);

    /** Total cores in the pool. */
    int cores() const { return _cores; }

    /** Cores currently idle. */
    std::int64_t idleCores() const { return sem.availablePermits(); }

  private:
    sim::Simulation &sim;
    int _cores;
    sim::Semaphore sem;
};

} // namespace vhive::host

#endif // VHIVE_HOST_CPU_POOL_HH

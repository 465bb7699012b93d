/**
 * @file
 * The per-instance REAP monitor (Sec. 5.2): a lightweight task
 * (goroutine in the paper's implementation) that owns the instance's
 * user-fault fd, serves page faults from the guest-memory snapshot
 * file, and — in record mode — logs the faulted offsets to produce the
 * trace and WS files.
 */

#ifndef VHIVE_CORE_MONITOR_HH
#define VHIVE_CORE_MONITOR_HH

#include <cstdint>

#include "core/ws_file.hh"
#include "mem/guest_memory.hh"
#include "mem/uffd.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "storage/file_store.hh"

namespace vhive::core {

/**
 * Serves an instance's page faults until told to shut down.
 *
 * In Record mode every serviced fault is appended to the working-set
 * record. In Prefetch mode the working set was installed eagerly
 * before the vCPUs resumed, so the monitor only sees faults to pages
 * missing from the stable set (Sec. 5.2.2) and serves them on demand.
 */
class Monitor
{
  public:
    enum class Mode { Record, Prefetch };

    Monitor(sim::Simulation &sim, storage::FileStore &fs,
            mem::UserFaultFd &uffd, mem::GuestMemory &guest,
            storage::FileId memory_file, Mode mode);

    Monitor(const Monitor &) = delete;
    Monitor &operator=(const Monitor &) = delete;

    /**
     * The monitor loop; spawn this detached. Exits after receiving the
     * uffd shutdown sentinel and then opens doneGate().
     */
    sim::Task<void> run();

    /** Opened when the loop has exited (safe-teardown handshake). */
    sim::Gate &doneGate() { return done; }

    /** Record-mode output: pages in first-fault order. */
    const WorkingSetRecord &recorded() const { return record; }

    Mode mode() const { return _mode; }

  private:
    sim::Simulation &sim;
    storage::FileStore &fs;
    mem::UserFaultFd &uffd;
    mem::GuestMemory &guest;
    storage::FileId memoryFile;
    Mode _mode;
    sim::Gate done;
    WorkingSetRecord record;
};

} // namespace vhive::core

#endif // VHIVE_CORE_MONITOR_HH

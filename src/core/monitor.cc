#include "core/monitor.hh"

#include "util/logging.hh"

namespace vhive::core {

Monitor::Monitor(sim::Simulation &sim, storage::FileStore &fs,
                 mem::UserFaultFd &uffd, mem::GuestMemory &guest,
                 storage::FileId memory_file, Mode mode)
    : sim(sim), fs(fs), uffd(uffd), guest(guest),
      memoryFile(memory_file), _mode(mode), done(sim)
{
    VHIVE_ASSERT(memory_file != storage::kInvalidFile);
}

sim::Task<void>
Monitor::run()
{
    while (true) {
        mem::FaultEvent ev = co_await uffd.nextFault();
        if (mem::UserFaultFd::isShutdown(ev))
            break;

        // Resolve the content from the guest-memory file with a
        // buffered pread covering the faulting run (the monitor may
        // install any number of pages per fault, Sec. 5.2).
        co_await fs.readBuffered(memoryFile, bytesForPages(ev.page),
                                 bytesForPages(ev.runPages));
        co_await uffd.copyCost(ev.runPages, ev.runPages);
        guest.installRange(ev.page, ev.runPages);

        if (_mode == Mode::Record) {
            for (std::int64_t p = ev.page; p < ev.page + ev.runPages;
                 ++p) {
                record.pages.push_back(p);
            }
        }

        ev.done->openGate();
    }
    done.openGate();
}

} // namespace vhive::core

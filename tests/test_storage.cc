/**
 * @file
 * Storage-model tests, including the fio-like calibration the paper
 * relies on (Sec. 5.2.3): ~32 MB/s at queue depth 1 with 4 KB reads,
 * ~360 MB/s at depth 16, ~850 MB/s for large sequential reads, plus
 * cache/O_DIRECT path behaviour and the HDD seek model.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "storage/disk.hh"
#include "storage/file_store.hh"
#include "util/units.hh"

namespace vhive::storage {
namespace {

using sim::Simulation;
using sim::Task;

struct Fixture {
    Simulation sim;
    DiskDevice ssd{sim, DiskParams::ssd()};
    FileStore fs{sim, ssd};
};

Task<void>
timedRead(Simulation &sim, DiskDevice &d, Bytes lba, Bytes len,
          Duration &out)
{
    Time t0 = sim.now();
    co_await d.read(lba, len);
    out = sim.now() - t0;
}

TEST(DiskModel, SingleSmallReadLatency)
{
    Simulation sim;
    DiskDevice ssd(sim, DiskParams::ssd());
    Duration d = 0;
    sim.spawn(timedRead(sim, ssd, 0, 4 * kKiB, d));
    sim.run();
    // Paper: one outstanding 4 KB read extracts ~32 MB/s, i.e. ~125 us.
    double mb_s = mbps(4 * kKiB, d);
    EXPECT_GT(mb_s, 24.0);
    EXPECT_LT(mb_s, 45.0);
}

Task<void>
qdWorker(Simulation &sim, DiskDevice &d, int reads, Bytes stride,
         Bytes base, sim::Latch *done)
{
    for (int i = 0; i < reads; ++i)
        co_await d.read(base + i * stride, 4 * kKiB);
    done->arrive();
    (void)sim;
}

double
randomReadThroughput(int depth, int reads_per_worker)
{
    Simulation sim;
    DiskDevice ssd(sim, DiskParams::ssd());
    sim::Latch done(sim, depth);
    for (int w = 0; w < depth; ++w) {
        // Disjoint, non-adjacent regions approximate random access.
        sim.spawn(qdWorker(sim, ssd, reads_per_worker, 64 * kKiB,
                           w * 512 * kMiB, &done));
    }
    Time end = sim.run();
    Bytes total = static_cast<Bytes>(depth) * reads_per_worker * 4 * kKiB;
    return mbps(total, end);
}

TEST(DiskModel, QueueDepth16Throughput)
{
    // Paper: 16 concurrent 4 KB requests -> ~360 MB/s.
    double mb_s = randomReadThroughput(16, 200);
    EXPECT_GT(mb_s, 270.0);
    EXPECT_LT(mb_s, 430.0);
}

TEST(DiskModel, ThroughputScalesWithDepthThenSaturates)
{
    double qd1 = randomReadThroughput(1, 200);
    double qd4 = randomReadThroughput(4, 200);
    double qd16 = randomReadThroughput(16, 200);
    double qd64 = randomReadThroughput(64, 100);
    EXPECT_GT(qd4, 2.5 * qd1);
    EXPECT_GT(qd16, 1.8 * qd4);
    // Controller serialization saturates the device.
    EXPECT_LT(qd64, 1.4 * qd16);
}

TEST(DiskModel, LargeSequentialReadNearsPeak)
{
    Simulation sim;
    DiskDevice ssd(sim, DiskParams::ssd());
    Duration d = 0;
    sim.spawn(timedRead(sim, ssd, 0, 8 * kMiB, d));
    sim.run();
    // Paper: peak ~850 MB/s for large reads.
    double mb_s = mbps(8 * kMiB, d);
    EXPECT_GT(mb_s, 650.0);
    EXPECT_LT(mb_s, 1050.0);
}

TEST(DiskModel, HddSeekDominatesRandomReads)
{
    Simulation sim;
    DiskDevice hdd(sim, DiskParams::hdd());
    Duration d = 0;
    sim.spawn(timedRead(sim, hdd, 1 * kGiB, 4 * kKiB, d));
    sim.run();
    EXPECT_GT(d, msec(5)); // dominated by the seek
    EXPECT_EQ(hdd.stats().seeks, 1);
}

TEST(DiskModel, HddSequentialAvoidsSeeks)
{
    struct Seq {
        static Task<void>
        run(Simulation &sim, DiskDevice &d)
        {
            co_await d.read(0, 4 * kMiB);
            (void)sim;
        }
    };
    Simulation sim;
    DiskDevice hdd(sim, DiskParams::hdd());
    sim.spawn(Seq::run(sim, hdd));
    Time end = sim.run();
    EXPECT_EQ(hdd.stats().seeks, 1); // only the initial positioning
    double mb_s = mbps(4 * kMiB, end);
    EXPECT_GT(mb_s, 80.0); // streams near media rate
}

TEST(DiskModel, StatsCountRequests)
{
    Simulation sim;
    DiskDevice ssd(sim, DiskParams::ssd());
    Duration d = 0;
    sim.spawn(timedRead(sim, ssd, 0, 1 * kMiB, d));
    sim.run();
    EXPECT_EQ(ssd.stats().requests, 1);
    EXPECT_EQ(ssd.stats().subRequests, 8); // 1 MiB / 128 KiB stripes
    EXPECT_EQ(ssd.stats().bytesRead, 1 * kMiB);
}

TEST(FileStore, CreateLookupSize)
{
    Fixture fx;
    FileId f = fx.fs.createFile("snap/memory", 10 * kMiB);
    EXPECT_EQ(fx.fs.lookup("snap/memory"), f);
    EXPECT_EQ(fx.fs.lookup("nope"), kInvalidFile);
    EXPECT_EQ(fx.fs.fileSize(f), 10 * kMiB);
    EXPECT_EQ(fx.fs.fileName(f), "snap/memory");
}

TEST(FileStore, SizeRoundsUpToPages)
{
    Fixture fx;
    FileId f = fx.fs.createFile("x", 4097);
    EXPECT_EQ(fx.fs.fileSize(f), 2 * kPageSize);
}

Task<void>
timedBuffered(Fixture &fx, FileId f, Bytes off, Bytes len, Duration &out)
{
    Time t0 = fx.sim.now();
    co_await fx.fs.readBuffered(f, off, len);
    out = fx.sim.now() - t0;
}

Task<void>
timedDirect(Fixture &fx, FileId f, Bytes off, Bytes len, Duration &out)
{
    Time t0 = fx.sim.now();
    co_await fx.fs.readDirect(f, off, len);
    out = fx.sim.now() - t0;
}

Task<void>
timedFault(Fixture &fx, FileId f, Bytes off, Bytes len, Duration &out)
{
    Time t0 = fx.sim.now();
    co_await fx.fs.faultRead(f, off, len);
    out = fx.sim.now() - t0;
}

TEST(FileStore, BufferedReadPopulatesCache)
{
    Fixture fx;
    FileId f = fx.fs.createFile("f", 1 * kMiB);
    EXPECT_FALSE(fx.fs.isCached(f, 0, 64 * kKiB));
    Duration cold = 0, warm = 0;
    fx.sim.spawn(timedBuffered(fx, f, 0, 64 * kKiB, cold));
    fx.sim.run();
    EXPECT_TRUE(fx.fs.isCached(f, 0, 64 * kKiB));
    fx.sim.spawn(timedBuffered(fx, f, 0, 64 * kKiB, warm));
    fx.sim.run();
    EXPECT_LT(warm, cold / 10); // cache hit is far cheaper
    EXPECT_GT(fx.fs.stats().cacheHits, 0);
}

TEST(FileStore, DropCachesForcesMisses)
{
    Fixture fx;
    FileId f = fx.fs.createFile("f", 1 * kMiB);
    Duration first = 0, second = 0;
    fx.sim.spawn(timedBuffered(fx, f, 0, 256 * kKiB, first));
    fx.sim.run();
    fx.fs.dropCaches();
    EXPECT_FALSE(fx.fs.isCached(f, 0, kPageSize));
    fx.sim.spawn(timedBuffered(fx, f, 0, 256 * kKiB, second));
    fx.sim.run();
    // Same cold cost both times.
    EXPECT_NEAR(static_cast<double>(second),
                static_cast<double>(first), first * 0.01);
}

TEST(FileStore, DirectBypassesCache)
{
    Fixture fx;
    FileId f = fx.fs.createFile("f", 8 * kMiB);
    Duration d = 0;
    fx.sim.spawn(timedDirect(fx, f, 0, 8 * kMiB, d));
    fx.sim.run();
    EXPECT_FALSE(fx.fs.isCached(f, 0, kPageSize));
    EXPECT_EQ(fx.fs.stats().directReads, 1);
}

TEST(FileStore, DirectBeatsBufferedForLargeReads)
{
    // The Fig. 7 WS-file vs REAP distinction: an 8 MiB O_DIRECT read is
    // roughly 2x faster than the buffered path (275 vs 533 MB/s in the
    // paper).
    Fixture fx;
    FileId f = fx.fs.createFile("ws", 8 * kMiB);
    Duration buffered = 0, direct = 0;
    fx.sim.spawn(timedBuffered(fx, f, 0, 8 * kMiB, buffered));
    fx.sim.run();
    fx.fs.dropCaches();
    fx.sim.spawn(timedDirect(fx, f, 0, 8 * kMiB, direct));
    fx.sim.run();
    double buf_mbs = mbps(8 * kMiB, buffered);
    double dir_mbs = mbps(8 * kMiB, direct);
    EXPECT_GT(buf_mbs, 200.0);
    EXPECT_LT(buf_mbs, 400.0);
    EXPECT_GT(dir_mbs, 500.0);
    EXPECT_GT(dir_mbs, 1.5 * buf_mbs);
}

TEST(FileStore, FaultReadCostlierThanPread)
{
    Fixture fx;
    FileId f = fx.fs.createFile("mem", 16 * kMiB);
    Duration fault = 0, pread = 0;
    fx.sim.spawn(timedFault(fx, f, 0, 3 * kPageSize, fault));
    fx.sim.run();
    fx.fs.dropCaches();
    fx.sim.spawn(timedBuffered(fx, f, 0, 3 * kPageSize, pread));
    fx.sim.run();
    EXPECT_GT(fault, pread);
    EXPECT_EQ(fx.fs.stats().faultMisses, 1);
}

TEST(FileStore, FaultReadOnCachedRangeIsMinor)
{
    Fixture fx;
    FileId f = fx.fs.createFile("mem", 16 * kMiB);
    Duration major = 0, minor = 0;
    fx.sim.spawn(timedFault(fx, f, 0, 2 * kPageSize, major));
    fx.sim.run();
    fx.sim.spawn(timedFault(fx, f, 0, 2 * kPageSize, minor));
    fx.sim.run();
    EXPECT_LT(minor, usec(10));
    EXPECT_GT(major, usec(100));
}

TEST(FileStore, SerializedFaultPathLimitsAggregateThroughput)
{
    // The Fig. 9 baseline phenomenon: many instances faulting in
    // parallel extract far less than fio at the same concurrency
    // because the per-miss serialized stage dominates.
    struct Faulter {
        static Task<void>
        run(FileStore &fs, FileId f, int faults, sim::Latch *done)
        {
            for (int i = 0; i < faults; ++i)
                co_await fs.faultRead(f, static_cast<Bytes>(i) * 64 *
                                             kKiB,
                                      3 * kPageSize);
            done->arrive();
        }
    };
    Simulation sim;
    DiskDevice ssd(sim, DiskParams::ssd());
    FileStore fs(sim, ssd);
    const int instances = 32;
    const int faults = 60;
    std::vector<FileId> f;
    for (int i = 0; i < instances; ++i) {
        std::string name = "m";
        name += std::to_string(i);
        f.push_back(fs.createFile(name, 16 * kMiB));
    }
    sim::Latch done(sim, instances);
    for (int i = 0; i < instances; ++i)
        sim.spawn(Faulter::run(fs, f[i], faults, &done));
    Time end = sim.run();
    Bytes useful =
        static_cast<Bytes>(instances) * faults * 3 * kPageSize;
    double mb_s = mbps(useful, end);
    // Well under the ~350+ MB/s the raw device would sustain.
    EXPECT_LT(mb_s, 140.0);
    EXPECT_GT(mb_s, 50.0);
}

TEST(FileStore, WriteBufferedMarksCachedAndReturnsFast)
{
    Fixture fx;
    FileId f = fx.fs.createFile("ws", 4 * kMiB);
    Duration d = 0;
    struct W {
        static Task<void>
        run(Fixture &fx, FileId f, Duration &out)
        {
            Time t0 = fx.sim.now();
            co_await fx.fs.writeBuffered(f, 0, 4 * kMiB);
            out = fx.sim.now() - t0;
        }
    };
    fx.sim.spawn(W::run(fx, f, d));
    fx.sim.run();
    EXPECT_TRUE(fx.fs.isCached(f, 0, 4 * kMiB));
    EXPECT_LT(d, msec(2));                        // async writeback
    EXPECT_EQ(fx.ssd.stats().bytesWritten, 4 * kMiB); // landed on disk
}

TEST(FileStore, TruncateGrowDropsCache)
{
    Fixture fx;
    FileId f = fx.fs.createFile("ws", 1 * kMiB);
    Duration d = 0;
    fx.sim.spawn(timedBuffered(fx, f, 0, 1 * kMiB, d));
    fx.sim.run();
    EXPECT_TRUE(fx.fs.isCached(f, 0, 1 * kMiB));
    fx.fs.truncate(f, 2 * kMiB);
    EXPECT_EQ(fx.fs.fileSize(f), 2 * kMiB);
    EXPECT_FALSE(fx.fs.isCached(f, 0, kPageSize));
}

TEST(FileStore, PartialCacheOnlyFetchesMissingChunks)
{
    Fixture fx;
    FileId f = fx.fs.createFile("f", 1 * kMiB);
    Duration first = 0;
    fx.sim.spawn(timedBuffered(fx, f, 0, 512 * kKiB, first));
    fx.sim.run();
    Bytes before = fx.ssd.stats().bytesRead;
    Duration second = 0;
    fx.sim.spawn(timedBuffered(fx, f, 0, 1 * kMiB, second));
    fx.sim.run();
    // Only the second half should hit the device.
    EXPECT_EQ(fx.ssd.stats().bytesRead - before, 512 * kKiB);
}


TEST(FileStore, FaultReadaheadExtendsWindow)
{
    // With fault readahead configured (the HDD model), a small fault
    // pulls a larger window so later nearby faults become minor.
    sim::Simulation sim;
    DiskDevice hdd(sim, DiskParams::hdd());
    IoPathParams io;
    io.faultReadahead = 48 * kKiB;
    FileStore fs(sim, hdd, io);
    FileId f = fs.createFile("mem", 4 * kMiB);
    struct T {
        static sim::Task<void>
        run(FileStore &fs, FileId f, Duration &first, Duration &second,
            sim::Simulation &sim)
        {
            Time t0 = sim.now();
            co_await fs.faultRead(f, 0, kPageSize);
            first = sim.now() - t0;
            t0 = sim.now();
            // Within the readahead window: a minor fault, no seek.
            co_await fs.faultRead(f, 8 * kPageSize, kPageSize);
            second = sim.now() - t0;
        }
    };
    Duration first = 0, second = 0;
    sim.spawn(T::run(fs, f, first, second, sim));
    sim.run();
    EXPECT_GT(first, msec(5));   // paid the seek once
    EXPECT_LT(second, usec(50)); // absorbed by the window
    EXPECT_EQ(fs.stats().faultMisses, 1);
}

TEST(FileStore, FaultReadaheadClampsAtFileEnd)
{
    sim::Simulation sim;
    DiskDevice ssd(sim, DiskParams::ssd());
    IoPathParams io;
    io.faultReadahead = 48 * kKiB;
    FileStore fs(sim, ssd, io);
    FileId f = fs.createFile("mem", 4 * kPageSize);
    struct T {
        static sim::Task<void>
        run(FileStore &fs, FileId f)
        {
            // Fault near the end: the window must not run past EOF.
            co_await fs.faultRead(f, 3 * kPageSize, kPageSize);
        }
    };
    sim.spawn(T::run(fs, f));
    sim.run();
    EXPECT_TRUE(fs.isCached(f, 3 * kPageSize, kPageSize));
}

TEST(DiskModel, RemoteStorageEnvelope)
{
    // Sanity for the Sec. 7.1 extension device: RTT-bound small
    // reads, respectable bulk streaming.
    sim::Simulation sim;
    DiskDevice remote(sim, DiskParams::remoteStorage());
    Duration small = 0, bulk = 0;
    sim.spawn(timedRead(sim, remote, 0, 4 * kKiB, small));
    sim.run();
    sim.spawn(timedRead(sim, remote, 1 * kGiB, 32 * kMiB, bulk));
    sim.run();
    EXPECT_GT(small, usec(350));
    EXPECT_LT(mbps(4 * kKiB, small), 12.0);
    EXPECT_GT(mbps(32 * kMiB, bulk), 400.0);
}

TEST(FileStore, ConcurrentBufferedReadsShareThePlug)
{
    // Many concurrent buffered readers serialize on the block-layer
    // plug stage: aggregate throughput is bounded by it.
    struct Reader {
        static sim::Task<void>
        run(FileStore &fs, FileId f, int reads, sim::Latch *done)
        {
            for (int i = 0; i < reads; ++i)
                co_await fs.readBuffered(
                    f, static_cast<Bytes>(i) * 64 * kKiB, 4 * kKiB);
            done->arrive();
        }
    };
    sim::Simulation sim;
    DiskDevice ssd(sim, DiskParams::ssd());
    FileStore fs(sim, ssd);
    const int readers = 16;
    const int reads = 50;
    std::vector<FileId> files;
    for (int i = 0; i < readers; ++i) {
        std::string name = "f";
        name += std::to_string(i);
        files.push_back(fs.createFile(name, 16 * kMiB));
    }
    sim::Latch done(sim, readers);
    for (int i = 0; i < readers; ++i)
        sim.spawn(Reader::run(fs, files[static_cast<size_t>(i)],
                              reads, &done));
    Time end = sim.run();
    double mb_s =
        mbps(static_cast<Bytes>(readers) * reads * 4 * kKiB, end);
    // Plug-bound: ~4 KiB / 30 us ~= 137 MB/s, well below the raw
    // device's ~340 MB/s at this concurrency.
    EXPECT_LT(mb_s, 180.0);
    EXPECT_GT(mb_s, 80.0);
}

} // namespace
} // namespace vhive::storage

/**
 * @file
 * Content-addressed artifact transfer under the Azure production mix:
 * how many bytes does the fleet actually move — and what does cold p99
 * pay — when snapshot/WS artifacts travel as deduplicated, compressed
 * chunks instead of opaque per-function blobs?
 *
 * Sweep (at the largest fleet, 16 workers, shared staging, warm-first
 * routing — the production default, which spreads cold starts across
 * the fleet so nearly every one pulls artifacts remotely, the regime
 * where transfer bytes dominate):
 *
 *   chunk size x cross-function dup ratio x compression on/off
 *
 * against the TieredReap + shared staging blob baseline, plus a
 * locality-hash contrast pair (colds concentrated at home, so moved
 * bytes collapse to staging traffic). The shared store carries
 * artifact traffic only (inputs go to the worker-private stores), so
 * fleet bytes-moved (shared-store bytesServed + bytesStored) is
 * exactly the artifact movement. Also reported: cold p50/p99, staged
 * bytes, dedup ratio, chunk batches and stream contention — all from
 * the run's FleetStats.
 *
 * `VHIVE_BENCH_JSON=BENCH_dedup.json` exports rows; CI gates the
 * events/sec of a fixed cell against ci/perf_floor.json
 * (dedup_cold_p99) and caps the sweep via VHIVE_DEDUP_MAX_WORKERS.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common.hh"
#include "bench/fleet_run.hh"
#include "cluster/parallel_fleet.hh"
#include "cluster/routing_policy.hh"
#include "core/options.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

struct Cell {
    const char *label;
    core::ColdStartMode mode;
    Bytes chunkBytes;
    double dupRatio;
    bool compression;
    cluster::RoutingPolicyKind policy =
        cluster::RoutingPolicyKind::WarmFirst;
};

/** Bytes the fleet moved through the shared store. */
Bytes
bytesMoved(const cluster::FleetStats &fs)
{
    return fs.store.bytesServed + fs.store.bytesStored;
}

bench::FleetRun
runCell(int workers, const Cell &cell)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = workers;
    cfg.coldStartMode = cell.mode;
    cfg.sharedSnapshots = true;
    cfg.routingPolicy = cell.policy;
    cfg.keepAlive = sec(60); // keep cold starts frequent (p99 = cold)
    cfg.worker.reap.chunkBytes = cell.chunkBytes;
    cfg.worker.reap.chunkDupRatio = cell.dupRatio;
    cfg.worker.reap.chunkCompression = cell.compression;
    cfg.workload.functions = 12;
    cfg.workload.minInterarrival = sec(5);
    cfg.workload.maxInterarrival = sec(240);
    cfg.workload.horizon = sec(900);
    return bench::timedFleetRun(cfg);
}

std::string
cellName(int workers, const Cell &cell)
{
    std::string name = "workers=" + std::to_string(workers);
    if (cell.policy == cluster::RoutingPolicyKind::LocalityHash)
        name += "/locality";
    if (cell.mode != core::ColdStartMode::DedupReap)
        return name + "/baseline=" + cell.label;
    return name + "/chunk=" +
           std::to_string(cell.chunkBytes / kKiB) +
           "KiB/dup=" + std::to_string(cell.dupRatio).substr(0, 4) +
           "/comp=" + (cell.compression ? "on" : "off");
}

} // namespace

int
main()
{
    bench::banner("Dedup transfer: chunk size x dup ratio x "
                  "compression vs blob TieredReap (Azure mix, shared "
                  "staging, warm-first)");

    int workers = 16;
    if (const char *cap = std::getenv("VHIVE_DEDUP_MAX_WORKERS")) {
        int max_workers = std::atoi(cap);
        if (workers > max_workers)
            workers = max_workers;
    }

    const Bytes chunks[] = {16 * kKiB, 64 * kKiB, 256 * kKiB};
    const double dups[] = {0.0, 0.35, 0.6};
    const bool comps[] = {true, false};

    bench::JsonWriter json("dedup_cold_p99");
    Table t({"cell", "inv", "cold%", "p50_ms", "p99_ms", "moved_MiB",
             "staged_MiB", "dedup%", "batches", "st_waits", "wall_s",
             "Mev/s"});

    auto report = [&](const Cell &cell, const bench::FleetRun &r) {
        const auto &fs = r.fleet;
        std::string name = cellName(workers, cell);
        t.row()
            .cell(name)
            .cell(fs.invocations)
            .cell(100.0 * fs.coldFraction(), 1)
            .cell(fs.coldP50(), 1)
            .cell(fs.coldP99(), 1)
            .cell(toMiB(bytesMoved(r.fleet)), 1)
            .cell(toMiB(fs.stagedBytes), 1)
            .cell(100.0 * fs.dedupRatio(), 1)
            .cell(fs.store.chunkBatches)
            .cell(fs.store.streamWaits)
            .cell(r.wall_s, 2)
            .cell(r.events_per_sec / 1e6, 1);
        json.row(name, "cold_p99_ms", fs.coldP99());
        json.row(name, "cold_p50_ms", fs.coldP50());
        json.row(name, "bytes_moved_mib", toMiB(bytesMoved(r.fleet)));
        json.row(name, "staged_mib", toMiB(fs.stagedBytes));
        json.row(name, "dedup_ratio", fs.dedupRatio());
        json.row(name, "wall_s", r.wall_s, r.events_per_sec);
    };

    // Blob baseline: TieredReap through the shared registry.
    Cell baseline{"tiered-shared", core::ColdStartMode::TieredReap,
                  64 * kKiB, 0.35, true};
    bench::FleetRun base = runCell(workers, baseline);
    report(baseline, base);

    const bench::FleetRun *reference = nullptr; // default dedup cell
    bench::FleetRun ref_result;
    for (Bytes chunk : chunks) {
        for (double dup : dups) {
            for (bool comp : comps) {
                Cell cell{"dedup", core::ColdStartMode::DedupReap,
                          chunk, dup, comp};
                bench::FleetRun r = runCell(workers, cell);
                report(cell, r);
                if (chunk == 64 * kKiB && dup == 0.35 && comp) {
                    ref_result = r;
                    reference = &ref_result;
                }
            }
        }
    }

    // Locality contrast: colds concentrate at the hash home, so the
    // fleet moves little beyond staging — which dedup still shrinks.
    for (core::ColdStartMode mode :
         {core::ColdStartMode::TieredReap,
          core::ColdStartMode::DedupReap}) {
        Cell cell{"tiered-shared", mode, 64 * kKiB, 0.35, true,
                  cluster::RoutingPolicyKind::LocalityHash};
        report(cell, runCell(workers, cell));
    }
    t.print();

    if (reference != nullptr) {
        double moved_reduction =
            bytesMoved(base.fleet) > 0
                ? 100.0 *
                      (1.0 - static_cast<double>(
                                 bytesMoved(reference->fleet)) /
                                 static_cast<double>(
                                     bytesMoved(base.fleet)))
                : 0.0;
        std::printf(
            "\nchunk=64KiB dup=0.35 comp=on vs blob TieredReap "
            "baseline (%d workers):\n  bytes moved %.1f -> %.1f MiB "
            "(%.1f%% reduction), cold p99 %.1f -> %.1f ms\n",
            workers, toMiB(bytesMoved(base.fleet)),
            toMiB(bytesMoved(reference->fleet)), moved_reduction,
            base.fleet.coldP99(), reference->fleet.coldP99());
    }

    std::printf(
        "\nChunked staging uploads each distinct compressed chunk "
        "once fleet-wide; blob\nstaging re-ships every function's "
        "full artifact. Cold starts move compressed\nchunk batches "
        "minus whatever the worker's chunk cache already holds "
        "(shared\nruntime pages arrive with whichever function came "
        "first). Dedup ratio and\nstream contention come from "
        "the run's FleetStats.\n");
    return 0;
}

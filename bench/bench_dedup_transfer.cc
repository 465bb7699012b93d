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
 * Cluster::fleetStats().
 *
 * `VHIVE_BENCH_JSON=BENCH_dedup.json` exports rows; CI gates the
 * events/sec of a fixed cell against ci/perf_floor.json
 * (dedup_cold_p99) and caps the sweep via VHIVE_DEDUP_MAX_WORKERS.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common.hh"
#include "cluster/azure_workload.hh"
#include "cluster/cluster.hh"
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

struct CellResult {
    cluster::FleetStats workload;
    cluster::FleetStats fleet;
    double wall_s = 0;
    double events_per_sec = 0;

    Bytes
    bytesMoved() const
    {
        return fleet.store.bytesServed + fleet.store.bytesStored;
    }
};

CellResult
runCell(int workers, const Cell &cell)
{
    sim::Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = workers;
    cfg.coldStartMode = cell.mode;
    cfg.sharedSnapshots = true;
    cfg.routingPolicy = cell.policy;
    cfg.keepAlive = sec(60); // keep cold starts frequent (p99 = cold)
    cfg.worker.reap.chunkBytes = cell.chunkBytes;
    cfg.worker.reap.chunkDupRatio = cell.dupRatio;
    cfg.worker.reap.chunkCompression = cell.compression;
    cluster::Cluster c(sim, cfg);

    cluster::AzureWorkloadConfig wcfg;
    wcfg.functions = 12;
    wcfg.minInterarrival = sec(5);
    wcfg.maxInterarrival = sec(240);
    wcfg.horizon = sec(900);

    cluster::AzureWorkload workload(sim, c, wcfg);
    CellResult r;
    auto host0 = std::chrono::steady_clock::now();
    bench::runScenario(sim, [&]() -> sim::Task<void> {
        r.workload = co_await workload.run();
    });
    auto host1 = std::chrono::steady_clock::now();
    r.fleet = c.fleetStats();
    r.wall_s = std::chrono::duration<double>(host1 - host0).count();
    r.events_per_sec =
        r.wall_s > 0
            ? static_cast<double>(sim.eventsProcessed()) / r.wall_s
            : 0;
    return r;
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

    auto report = [&](const Cell &cell, const CellResult &r) {
        const auto &fs = r.fleet;
        std::string name = cellName(workers, cell);
        t.row()
            .cell(name)
            .cell(r.workload.invocations)
            .cell(100.0 * r.workload.coldFraction(), 1)
            .cell(fs.coldP50(), 1)
            .cell(fs.coldP99(), 1)
            .cell(toMiB(r.bytesMoved()), 1)
            .cell(toMiB(fs.stagedBytes), 1)
            .cell(100.0 * fs.dedupRatio(), 1)
            .cell(fs.store.chunkBatches)
            .cell(fs.store.streamWaits)
            .cell(r.wall_s, 2)
            .cell(r.events_per_sec / 1e6, 1);
        json.row(name, "cold_p99_ms", fs.coldP99());
        json.row(name, "cold_p50_ms", fs.coldP50());
        json.row(name, "bytes_moved_mib", toMiB(r.bytesMoved()));
        json.row(name, "staged_mib", toMiB(fs.stagedBytes));
        json.row(name, "dedup_ratio", fs.dedupRatio());
        json.row(name, "wall_s", r.wall_s, r.events_per_sec);
    };

    // Blob baseline: TieredReap through the shared registry.
    Cell baseline{"tiered-shared", core::ColdStartMode::TieredReap,
                  64 * kKiB, 0.35, true};
    CellResult base = runCell(workers, baseline);
    report(baseline, base);

    const CellResult *reference = nullptr; // default dedup cell
    CellResult ref_result;
    for (Bytes chunk : chunks) {
        for (double dup : dups) {
            for (bool comp : comps) {
                Cell cell{"dedup", core::ColdStartMode::DedupReap,
                          chunk, dup, comp};
                CellResult r = runCell(workers, cell);
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
            base.bytesMoved() > 0
                ? 100.0 *
                      (1.0 - static_cast<double>(
                                 reference->bytesMoved()) /
                                 static_cast<double>(
                                     base.bytesMoved()))
                : 0.0;
        std::printf(
            "\nchunk=64KiB dup=0.35 comp=on vs blob TieredReap "
            "baseline (%d workers):\n  bytes moved %.1f -> %.1f MiB "
            "(%.1f%% reduction), cold p99 %.1f -> %.1f ms\n",
            workers, toMiB(base.bytesMoved()),
            toMiB(reference->bytesMoved()), moved_reduction,
            base.fleet.coldP99(), reference->fleet.coldP99());
    }

    std::printf(
        "\nChunked staging uploads each distinct compressed chunk "
        "once fleet-wide; blob\nstaging re-ships every function's "
        "full artifact. Cold starts move compressed\nchunk batches "
        "minus whatever the worker's chunk cache already holds "
        "(shared\nruntime pages arrive with whichever function came "
        "first). Dedup ratio and\nstream contention come from "
        "Cluster::fleetStats().\n");
    return 0;
}

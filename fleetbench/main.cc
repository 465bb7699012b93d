/**
 * @file
 * Fleet benchmark binary: builds one workload's ParallelFleet, runs
 * it once and prints one JSON object of raw results on stdout. run.py
 * in this directory repeats it, checks the outputs and turns them
 * into the benchmark's metrics.
 *
 *   fleet_bench --workload NAME --seed N [--threads T]
 *               [--horizon-scale F]
 *
 * --threads overrides the workload's sim thread count (results must
 * not change, only wall time). Built with FLEETBENCH_TRACED
 * (fleet_bench_traced) it also prints the per-layer spans of
 * trace_wrap.cc under "trace".
 */

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cluster/parallel_fleet.hh"
#include "fleetbench/workloads.hh"
#include "util/units.hh"

#ifdef FLEETBENCH_TRACED
#include "fleetbench/trace.hh"
#endif

using namespace vhive;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Process start, as near as the program can take it: set before the
 * static initialisers of every translation unit (priority 101 runs
 * ahead of the default), so set-up time includes them.
 */
Clock::time_point processStart;

__attribute__((constructor(101))) void
markProcessStart()
{
    processStart = Clock::now();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "fleet_bench: %s\nusage: fleet_bench --workload NAME "
                 "--seed N [--threads T] [--horizon-scale F]\n"
                 "workloads: %s\n",
                 msg, fleetbench::workloadNames());
    std::exit(2);
}

/** Comma-separated JSON members, printed on one line. */
class JsonLine
{
  public:
    JsonLine() { std::printf("{"); }

    void
    num(const char *key, double v)
    {
        sep();
        std::printf("\"%s\": %.17g", key, v);
    }

    void
    num(const char *key, std::int64_t v)
    {
        sep();
        std::printf("\"%s\": %" PRId64, key, v);
    }

    void
    str(const char *key, const std::string &v)
    {
        sep();
        std::printf("\"%s\": \"%s\"", key, v.c_str());
    }

    void
    list(const char *key, const std::vector<double> &v)
    {
        sep();
        std::printf("\"%s\": [", key);
        for (std::size_t i = 0; i < v.size(); ++i)
            std::printf("%s%.17g", i ? ", " : "", v[i]);
        std::printf("]");
    }

    void
    open(const char *key)
    {
        sep();
        std::printf("\"%s\": {", key);
        first = true;
    }

    void
    close()
    {
        std::printf("}");
        first = false;
    }

    ~JsonLine() { std::printf("}\n"); }

  private:
    void
    sep()
    {
        if (!first)
            std::printf(", ");
        first = false;
    }

    bool first = true;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    bool have_seed = false;
    int threads = 0;
    double horizon_scale = 1.0;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage("missing value after an option");
        const char *opt = argv[i];
        const char *val = argv[++i];
        char *end = nullptr;
        if (std::strcmp(opt, "--workload") == 0) {
            workload = val;
        } else if (std::strcmp(opt, "--seed") == 0) {
            seed = std::strtoull(val, &end, 10);
            have_seed = *val != '\0' && *val != '-' && *end == '\0';
            if (!have_seed)
                usage("--seed takes a non-negative integer");
        } else if (std::strcmp(opt, "--threads") == 0) {
            threads = std::atoi(val);
            if (threads < 1 || threads > 64)
                usage("--threads takes 1..64");
        } else if (std::strcmp(opt, "--horizon-scale") == 0) {
            horizon_scale = std::strtod(val, &end);
            if (*end != '\0' || !(horizon_scale > 0) ||
                horizon_scale > 1)
                usage("--horizon-scale takes a number in (0, 1]");
        } else {
            usage("unknown option");
        }
    }
    if (workload.empty() || !have_seed)
        usage("--workload and --seed are required");

    // Set-up: configuration, workload synthesis and the construction
    // of domains, workers and the kernel thread pool, timed from
    // process start until run() is entered.
    std::optional<cluster::ParallelFleetConfig> cfg =
        fleetbench::workloadConfig(workload, seed, horizon_scale);
    if (!cfg)
        usage("unknown workload");
    if (threads > 0)
        cfg->simThreads = threads;
    int sim_threads = cfg->simThreads;
    cluster::ParallelFleet fleet(std::move(*cfg));

#ifdef FLEETBENCH_TRACED
    fleetbench::trace::reset();
#endif
    double setup_s = secondsSince(processStart);
    auto t0 = Clock::now();
    cluster::ParallelFleetResult r = fleet.run();
    double wall_s = secondsSince(t0);
#ifdef FLEETBENCH_TRACED
    fleetbench::trace::Totals tr = fleetbench::trace::collect();
#endif

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    // digest() reads samples in arrival order; percentile() sorts
    // them in place, so the digest comes first.
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, r.digest());
    const sim::ParallelKernel::Stats &ks = fleet.kernelStats();

    JsonLine j;
    j.str("workload", workload);
    j.num("seed", static_cast<std::int64_t>(seed));
    j.num("threads", static_cast<std::int64_t>(sim_threads));
    j.str("digest", digest);
    j.num("setup_s", setup_s);
    j.num("wall_s", wall_s);
    j.num("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0);

    j.num("invocations", r.invocations);
    j.num("cold_starts", r.coldStarts);
    j.num("warm_hits", r.warmHits);
    j.num("e2e_samples", r.e2eLatencyMs.count());
    j.num("cold_samples", r.coldE2eMs.count());
    j.num("warm_samples", r.warmE2eMs.count());
    j.num("e2e_p50_ms", r.e2eLatencyMs.percentile(50));
    j.num("e2e_p99_ms", r.e2eLatencyMs.percentile(99));
    j.num("cold_p50_ms", r.coldE2eMs.percentile(50));
    j.num("cold_p90_ms", r.coldE2eMs.percentile(90));

    j.num("events", r.eventsProcessed);
    j.num("windows", ks.windows);
    j.num("solo_windows", ks.soloWindows);
    j.num("messages", ks.messages);

    j.num("scale_downs", r.scaleDowns);
    j.num("prewarms", r.preWarms);
    j.num("prewarm_hits", r.preWarmHits);
    j.num("bg_prefetches", r.bgPrefetches);
    j.num("snapshot_builds", r.snapshotBuilds);
    j.num("staged_bytes", r.stagedBytes);
    j.num("dedup_saved_bytes", r.dedupSavedBytes);
    j.num("remote_fetches", r.remoteArtifactFetches);

    j.num("store_gets", r.store.gets);
    j.num("store_bytes_served", r.store.bytesServed);
    j.num("store_stream_waits", r.store.streamWaits);
    j.num("store_stream_wait_ms", toMs(r.store.streamWaitTime));
    j.num("store_peak_stream_queue", r.store.peakStreamQueue);
    j.num("store_retries", r.store.requestRetries);
    std::vector<double> shard_bytes;
    for (const net::ObjectStoreStats &s : r.storeShards)
        shard_bytes.push_back(static_cast<double>(s.bytesServed));
    j.list("shard_bytes_served", shard_bytes);

    j.num("page_cache_peak_bytes", r.pageCachePeakBytes);
    j.num("page_cache_evicted_bytes", r.pageCacheEvictedBytes);
    j.num("chunk_cache_peak_bytes", r.workerChunkPeakBytes);
    j.num("chunk_evictions", r.workerChunkBudgetEvictions);
    j.num("ssd_evictions", r.ssdEvictions);
    j.num("fleet_chunk_peak_bytes", r.fleetChunkPeakBytes);

#ifdef FLEETBENCH_TRACED
    j.open("trace");
    j.num("traces", tr.traces);
    j.num("trace_pages", tr.tracePages);
    j.num("trace_s", tr.traceSeconds);
    j.num("window_calls", tr.windowCalls);
    j.num("window_s", tr.windowSeconds);
    j.num("evict_calls", tr.evictCalls);
    j.num("evict_s", tr.evictSeconds);
    j.num("record_phases", tr.recordPhases);
    j.num("crashed", tr.crashed);
    j.num("serving_invokes", tr.servingInvokes);
    j.num("serving_warm", tr.servingWarm);
    j.num("serving_cold", tr.servingCold);
    j.num("load_vmm_ms", tr.loadVmmMs);
    j.num("load_vmm_tail_ms", tr.loadVmmTailMs);
    j.num("conn_restore_ms", tr.connRestoreMs);
    j.num("conn_restore_tail_ms", tr.connRestoreTailMs);
    j.num("processing_ms", tr.processingMs);
    j.num("processing_tail_ms", tr.processingTailMs);
    j.num("fetch_ws_ms", tr.fetchWsMs);
    j.num("fetch_ws_tail_ms", tr.fetchWsTailMs);
    j.num("install_ws_ms", tr.installWsMs);
    j.num("install_ws_tail_ms", tr.installWsTailMs);
    j.num("faults_per_cold", tr.faultsPerCold);
    j.num("residual_faults_per_cold", tr.residualFaultsPerCold);
    j.num("prefetched_pages", tr.prefetchedPages);
    j.num("wasted_prefetch", tr.wastedPrefetch);
    j.num("prewarm_calls", tr.preWarmCalls);
    j.num("prefetch_calls", tr.prefetchCalls);
    j.close();
#endif
    return 0;
}

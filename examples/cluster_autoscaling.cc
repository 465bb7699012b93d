/**
 * @file
 * Fleet scenario: a small vHive cluster serving sporadic Poisson
 * traffic to several functions with Knative-style keep-alive and
 * scale-to-zero — the production situation that makes cold starts
 * matter (Sec. 2.1). Runs the same workload twice, with vanilla
 * snapshots and with REAP, and compares end-to-end tail latency and
 * cold-start counts.
 *
 * Usage: cluster_autoscaling [minutes]    (default 60 simulated)
 */

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "cluster/parallel_fleet.hh"
#include "core/options.hh"
#include "func/profile.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

struct FnLoad {
    const char *name;
    double mean_interarrival_s;
};

/** Sporadic traffic mix (most functions < 1 invocation/min). */
const FnLoad kMix[] = {
    {"helloworld", 70},
    {"pyaes", 95},
    {"lr_serving", 140},
    {"cnn_serving", 200},
};

struct RunStats {
    double p50 = 0, p99 = 0;
    std::int64_t cold = 0, warm = 0, scale_downs = 0;
};

/** One invocation of @p name, then arrive at @p done. */
sim::Task<void>
invokeOne(cluster::FleetClient &c, std::string name, sim::Latch *done)
{
    (void)co_await c.invoke(name);
    done->arrive();
}

/** Open-loop Poisson arrivals of one function over @p horizon. */
sim::Task<void>
poissonLoad(cluster::FleetClient &c, const FnLoad &f, Duration horizon,
            std::uint64_t seed, sim::Latch *done)
{
    auto count = static_cast<std::int64_t>(
        toMs(horizon) / 1000.0 / f.mean_interarrival_s);
    Rng rng(seed, std::string("poisson/") + f.name);
    sim::Latch fired(c.sim(), count);
    for (std::int64_t i = 0; i < count; ++i) {
        co_await c.sim().delay(static_cast<Duration>(rng.exponential(
            static_cast<double>(sec(f.mean_interarrival_s)))));
        c.sim().spawn(invokeOne(c, f.name, &fired));
    }
    co_await fired.wait();
    done->arrive();
}

sim::Task<void>
driveLoad(cluster::FleetClient &c, Duration horizon, std::uint64_t seed)
{
    sim::Latch done(c.sim(), static_cast<std::int64_t>(std::size(kMix)));
    for (const auto &f : kMix)
        c.sim().spawn(poissonLoad(c, f, horizon, seed, &done));
    co_await done.wait();
}

RunStats
runOnce(core::ColdStartMode mode, Duration horizon)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 2;
    cfg.keepAlive = sec(60); // aggressive deallocation
    cfg.coldStartMode = mode;
    cluster::ParallelFleet fleet(cfg);
    std::vector<func::FunctionProfile> profiles;
    for (const auto &f : kMix)
        profiles.push_back(func::profileByName(f.name));

    cluster::FleetStats r =
        fleet.run(std::move(profiles), [horizon](cluster::FleetClient &c) {
            return driveLoad(c, horizon, 1234);
        });

    RunStats out;
    out.p50 = r.e2eLatencyMs.percentile(50);
    out.p99 = r.e2eLatencyMs.percentile(99);
    out.cold = r.coldStarts;
    out.warm = r.warmHits;
    out.scale_downs = r.scaleDowns;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    double minutes = argc > 1 ? std::atof(argv[1]) : 60.0;
    if (minutes < 1)
        minutes = 1;
    Duration horizon = sec(minutes * 60.0);

    std::printf("2-worker cluster, %0.f min of sporadic Poisson "
                "traffic, 60 s keep-alive:\n\n",
                minutes);
    RunStats vanilla =
        runOnce(core::ColdStartMode::VanillaSnapshot, horizon);
    RunStats reap = runOnce(core::ColdStartMode::Reap, horizon);

    Table t({"cold-start mode", "p50_ms", "p99_ms", "cold_starts",
             "warm_hits", "scale_downs"});
    t.row()
        .cell("vanilla snapshots")
        .cell(vanilla.p50, 1)
        .cell(vanilla.p99, 0)
        .cell(vanilla.cold)
        .cell(vanilla.warm)
        .cell(vanilla.scale_downs);
    t.row()
        .cell("REAP")
        .cell(reap.p50, 1)
        .cell(reap.p99, 0)
        .cell(reap.cold)
        .cell(reap.warm)
        .cell(reap.scale_downs);
    t.print();

    std::printf("\nWith sporadic arrivals and scale-to-zero, most "
                "invocations are cold; REAP\ncuts the tail latency "
                "those cold starts impose (p99 %.0f -> %.0f ms).\n",
                vanilla.p99, reap.p99);
    return 0;
}

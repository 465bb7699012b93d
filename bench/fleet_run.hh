/**
 * @file
 * Timed cluster::ParallelFleet runs for the fleet benchmarks: the
 * run's FleetStats and fault counters plus the host wall-clock and
 * kernel events/sec the perf floors gate.
 */

#ifndef VHIVE_BENCH_FLEET_RUN_HH
#define VHIVE_BENCH_FLEET_RUN_HH

#include <chrono>
#include <utility>
#include <vector>

#include "cluster/parallel_fleet.hh"
#include "sim/fault.hh"
#include "util/units.hh"

namespace vhive::bench {

/** One timed fleet run. */
struct FleetRun
{
    cluster::FleetStats fleet;
    sim::FaultStats faults;
    double wall_s = 0;
    double events_per_sec = 0;
};

/**
 * Run @p fleet's configured workload, or @p script over its
 * workloadProfiles() when one is given, timing the host wall-clock.
 */
inline FleetRun
timedFleetRun(cluster::ParallelFleet &fleet,
              cluster::FleetScript script = nullptr)
{
    FleetRun r;
    auto host0 = std::chrono::steady_clock::now();
    r.fleet = script ? fleet.run(fleet.workloadProfiles(),
                                 std::move(script))
                     : fleet.run();
    auto host1 = std::chrono::steady_clock::now();
    r.faults = fleet.faultStats();
    r.wall_s = std::chrono::duration<double>(host1 - host0).count();
    r.events_per_sec =
        r.wall_s > 0
            ? static_cast<double>(r.fleet.eventsProcessed) / r.wall_s
            : 0;
    return r;
}

/** timedFleetRun() of a fresh fleet of @p cfg. */
inline FleetRun
timedFleetRun(const cluster::ParallelFleetConfig &cfg)
{
    cluster::ParallelFleet fleet(cfg);
    return timedFleetRun(fleet);
}

/**
 * The simulated instant a fleet of @p cfg finishes staging and starts
 * its workload. Staging is deterministic, so fault windows placed
 * relative to it land in the measured window, not the staging
 * prologue. Costs one staging-only run of the fleet.
 */
inline Time
fleetReadyAt(const cluster::ParallelFleetConfig &cfg)
{
    cluster::ParallelFleet probe(cfg);
    Time t = -1;
    (void)probe.run(probe.workloadProfiles(),
                    [&t](cluster::FleetClient &c) -> sim::Task<void> {
                        t = c.sim().now();
                        co_return;
                    });
    return t;
}

} // namespace vhive::bench

#endif // VHIVE_BENCH_FLEET_RUN_HH

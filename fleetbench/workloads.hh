/**
 * @file
 * The fleet benchmark's workloads: one cluster::ParallelFleetConfig
 * per named workload, built from the workload seed alone. README.md
 * in this directory says why each workload exists and which layers it
 * loads.
 */

#ifndef FLEETBENCH_WORKLOADS_HH
#define FLEETBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>

#include "cluster/parallel_fleet.hh"

namespace fleetbench {

/**
 * The configuration of workload @p name for @p seed, or nothing when
 * the name is unknown. @p horizon_scale (0, 1] shortens the traffic
 * horizon for the self-test; 1 is the benchmarked size.
 */
std::optional<vhive::cluster::ParallelFleetConfig>
workloadConfig(const std::string &name, std::uint64_t seed,
               double horizon_scale = 1.0);

/** Names of every workload, comma-separated (for usage messages). */
const char *workloadNames();

} // namespace fleetbench

#endif // FLEETBENCH_WORKLOADS_HH

/**
 * @file
 * Production-like workload synthesis following the Azure Functions
 * characterization the paper builds its motivation on (Sec. 2.1,
 * citing Shahrad et al.): most functions are invoked rarely (90%
 * less than once per minute), run shortly, and arrive unpredictably.
 * The generator deploys N functions whose mean inter-arrival times
 * are log-uniform over a configurable range and drives independent
 * Poisson arrivals for a simulated horizon (ParallelFleet's
 * closed-loop arrival loops, one Rng stream per function).
 */

#ifndef VHIVE_CLUSTER_AZURE_WORKLOAD_HH
#define VHIVE_CLUSTER_AZURE_WORKLOAD_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "func/profile.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace vhive::cluster {

/**
 * Indices into func::functionBench() that synthesized populations
 * (the Azure mix without a classMix, and every TrafficEngine
 * population) draw profiles from, cycled: the low/medium-weight
 * functions, so the mix resembles the short-running production
 * population.
 */
inline constexpr std::array<int, 7> kMixProfilePool = {0, 1, 2, 3,
                                                       4, 5, 7};

/** Configuration of the synthetic production mix. */
struct AzureWorkloadConfig
{
    /** Number of deployed functions. */
    int functions = 12;

    /** Shortest mean inter-arrival in the mix. */
    Duration minInterarrival = sec(20);

    /** Longest mean inter-arrival in the mix (sporadic tail). */
    Duration maxInterarrival = sec(900);

    /** Simulated horizon. */
    Duration horizon = sec(1800);

    /** Workload synthesis seed. */
    std::uint64_t seed = 0xa27e;

    /**
     * When non-empty, profiles are generated from these function
     * classes instead of kMixProfilePool: function i is drawn by
     * func::makeClassProfile(classMix[i % size], seed, i), cycling
     * the list. Inter-arrival synthesis is unchanged (one uniform per
     * function from the same "azure-workload" stream), so switching a
     * mix between pool and classes perturbs nothing else. Empty
     * (default) keeps the historical pool-based mix bit-identical.
     */
    std::vector<func::FunctionClass> classMix;
};

/** One synthesized function of the Azure mix. */
struct AzureMixEntry
{
    func::FunctionProfile profile;
    Duration meanInterarrival;
};

/**
 * Profile @p i of a synthesized population, named
 * "<prefix>_<i>_<base>": func::makeClassProfile(classMix[i % size],
 * seed, i) when @p class_mix is non-empty (its own named sub-stream,
 * so the caller's streams see exactly the draws they always did),
 * else func::functionBench()[kMixProfilePool[i % size]].
 */
func::FunctionProfile mixProfile(
    const std::vector<func::FunctionClass> &class_mix,
    std::uint64_t seed, int i, const std::string &prefix);

/**
 * Synthesize the deterministic function mix @p cfg describes: profile
 * picks cycle through kMixProfilePool (or cfg.classMix) and mean
 * inter-arrivals are log-uniform over [minInterarrival,
 * maxInterarrival], all driven by Rng(cfg.seed, "azure-workload") in
 * deployment order.
 */
std::vector<AzureMixEntry> synthesizeAzureMix(
    const AzureWorkloadConfig &cfg);

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_AZURE_WORKLOAD_HH

/**
 * @file
 * Production-like workload synthesis following the Azure Functions
 * characterization the paper builds its motivation on (Sec. 2.1,
 * citing Shahrad et al.): most functions are invoked rarely (90%
 * less than once per minute), run shortly, and arrive unpredictably.
 * The generator deploys N functions whose mean inter-arrival times
 * are log-uniform over a configurable range and drives independent
 * Poisson arrivals for a simulated horizon; the cluster's keep-alive
 * janitor integrates the fleet's resident memory meanwhile
 * (FleetStats::residentByteSec).
 */

#ifndef VHIVE_CLUSTER_AZURE_WORKLOAD_HH
#define VHIVE_CLUSTER_AZURE_WORKLOAD_HH

#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "func/profile.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace vhive::cluster {

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
     * Run REAP's one-time record phase for every function before the
     * measured window (default). Deployed production functions have
     * long since recorded their working sets; disable to study the
     * cost of records landing inside the window.
     */
    bool preRecordWorkingSets = true;

    /**
     * Indices into func::functionBench() to draw profiles from
     * (cycled). Defaults to the low/medium-weight functions so the
     * mix resembles the short-running production population.
     */
    std::vector<int> profilePool = {0, 1, 2, 3, 4, 5, 7};

    /**
     * When non-empty, profiles are generated from these function
     * classes instead of profilePool: function i is drawn by
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
 * else func::functionBench()[pool[i % size]].
 */
func::FunctionProfile mixProfile(
    const std::vector<int> &pool,
    const std::vector<func::FunctionClass> &class_mix,
    std::uint64_t seed, int i, const std::string &prefix);

/**
 * Synthesize the deterministic function mix @p cfg describes: profile
 * picks cycle through cfg.profilePool and mean inter-arrivals are
 * log-uniform over [minInterarrival, maxInterarrival], all driven by
 * Rng(cfg.seed, "azure-workload") in deployment order. Shared by
 * AzureWorkload (sequential cluster) and cluster::ParallelFleet so the
 * two drive bit-identical mixes.
 */
std::vector<AzureMixEntry> synthesizeAzureMix(
    const AzureWorkloadConfig &cfg);

/**
 * Deploys the mix onto @p cluster and drives it. The cluster must be
 * freshly constructed (no prior deployments); the run starts the
 * autoscaler and stops it before returning.
 */
class AzureWorkload
{
  public:
    AzureWorkload(sim::Simulation &sim, Cluster &cluster,
                  AzureWorkloadConfig config = AzureWorkloadConfig{});

    /** Names of the synthesized functions (after construction). */
    const std::vector<std::string> &functionNames() const
    {
        return names;
    }

    /** Run the workload to completion; returns the cluster's
     * fleetStats() over the measured window. */
    sim::Task<FleetStats> run();

  private:
    sim::Task<void> arrivalLoop(int idx, sim::Latch *done);

    sim::Simulation &sim;
    Cluster &cluster;
    AzureWorkloadConfig cfg;
    std::vector<std::string> names;
    std::vector<Duration> interarrival;
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_AZURE_WORKLOAD_HH

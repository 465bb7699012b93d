/**
 * @file
 * Planet-shaped invocation traffic. Production serverless arrivals
 * are sporadic (Sec. 2.1: 90% of functions invoked less than once per
 * minute); TrafficEngine models heavy-tailed function populations with
 * Zipf invocation skew (the "Serverless in the Wild" Azure
 * characterization), diurnal rate modulation, and synchronized burst
 * events — tenant flash crowds and deploy storms — sampled by
 * Lewis-Shedler thinning so arrival streams stay deterministic per
 * seed. cluster::ParallelFleet drives it open-loop from its control
 * domain.
 */

#ifndef VHIVE_CLUSTER_TRAFFIC_HH
#define VHIVE_CLUSTER_TRAFFIC_HH

#include <string>
#include <vector>

#include "func/profile.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace vhive::cluster {

/** Sinusoidal day/night modulation of every function's rate. */
struct DiurnalShape
{
    /** Cycle length (a simulated "day"; shorten it for benches). */
    Duration period = sec(86400);

    /**
     * Peak-to-mean swing in [0, 0.95]: rate(t) scales by
     * 1 + amplitude * sin(2*pi * (t/period + phase)). 0 disables.
     */
    double amplitude = 0;

    /** Phase offset as a fraction of the period. */
    double phase = 0;
};

/** Kinds of synchronized burst events. */
enum class BurstKind {
    /**
     * One tenant's traffic spikes together (retry storm, marketing
     * event): every function of @p tenant multiplies its rate.
     */
    FlashCrowd,

    /**
     * A coordinated rollout re-invokes a random fraction of the whole
     * population at once (membership drawn per burst from the seed).
     */
    DeployStorm,
};

/** One burst event, relative to traffic start. */
struct BurstSpec
{
    BurstKind kind = BurstKind::FlashCrowd;
    Duration start = sec(60);
    Duration duration = sec(30);

    /** Rate multiplier applied to affected functions while active. */
    double multiplier = 10.0;

    /** FlashCrowd: the tenant whose functions spike. */
    int tenant = 0;

    /** DeployStorm: fraction of the population redeployed. */
    double fraction = 0.25;
};

/** Configuration of the planet-scale traffic model. */
struct TrafficConfig
{
    /** Deployed population size (thousands at generator scale). */
    int functions = 1000;

    /** Tenants the population is uniformly assigned to. */
    int tenants = 8;

    /**
     * Zipf exponent of the invocation-rate skew: function at
     * popularity rank r gets weight 1/(r+1)^s. ~1 matches the Azure
     * trace's heavy tail (a few hot functions, a long cold tail).
     */
    double zipfExponent = 1.1;

    /** Aggregate mean arrival rate across the population (1/sec). */
    double aggregateRps = 100.0;

    /** Simulated horizon arrivals are generated for. */
    Duration horizon = sec(600);

    DiurnalShape diurnal{};
    std::vector<BurstSpec> bursts;

    /**
     * Fraction of the population invoked on a timer (the cron-like
     * periodic class of the Azure characterization) instead of
     * Poisson arrivals. Membership, per-function period (log-uniform
     * in [periodicMinPeriod, periodicMaxPeriod]) and phase are drawn
     * from the seed; a timer neither flash-crowds nor follows the
     * diurnal curve, so periodic functions ignore burst and diurnal
     * modulation (and their Zipf rate share — aggregateRps then only
     * approximates the population total). Each timer arrival is
     * jittered by up to TrafficEngine::kPeriodicJitter of its period.
     * 0 disables the class.
     */
    double periodicFraction = 0;
    Duration periodicMinPeriod = sec(60);
    Duration periodicMaxPeriod = sec(480);

    std::uint64_t seed = 0x7ea41c;
};

/**
 * Deterministic rate model + arrival sampler. Construction
 * precomputes per-function profiles ("tr_<i>_<base>", cycling
 * kMixProfilePool like the Azure mix), tenant
 * assignment, Zipf base rates and burst memberships from the seed;
 * rateAt()/nextArrival() are then pure functions of (function, time)
 * and the caller's Rng stream, so every consumer — the fleet, benches,
 * property tests — sees the same traffic.
 */
class TrafficEngine
{
  public:
    /** Per-arrival uniform timer jitter, as a fraction of the period. */
    static constexpr double kPeriodicJitter = 0.05;

    explicit TrafficEngine(TrafficConfig config);

    const TrafficConfig &config() const { return cfg; }

    int functionCount() const { return cfg.functions; }

    const func::FunctionProfile &profile(int fn) const
    {
        return profiles[static_cast<size_t>(fn)];
    }

    /** Tenant @p fn belongs to. */
    int tenantOf(int fn) const
    {
        return tenants[static_cast<size_t>(fn)];
    }

    /** Whether burst @p b applies to @p fn. */
    bool burstAffects(int b, int fn) const
    {
        return burstMembers[static_cast<size_t>(b)]
                           [static_cast<size_t>(fn)];
    }

    /** Zipf-weighted mean rate of @p fn (1/sec), bursts aside. */
    double baseRate(int fn) const
    {
        return baseRates[static_cast<size_t>(fn)];
    }

    /** Whether @p fn fires on a timer instead of Poisson arrivals. */
    bool isPeriodic(int fn) const
    {
        return periods[static_cast<size_t>(fn)] > 0;
    }

    /** Timer period of @p fn (0 when not periodic). */
    Duration periodOf(int fn) const
    {
        return periods[static_cast<size_t>(fn)];
    }

    /** Instantaneous rate of @p fn at @p t since traffic start. */
    double rateAt(int fn, Duration t) const;

    /** Upper bound on rateAt over all t (thinning envelope). */
    double peakRate(int fn) const;

    /** Integral of rateAt over [t0, t1) (for rate-accuracy tests). */
    double expectedArrivals(int fn, Duration t0, Duration t1) const;

    /**
     * Next arrival of @p fn strictly after @p now (relative to
     * traffic start), sampled by thinning against peakRate() from
     * @p rng. May exceed the horizon; the caller bounds the loop.
     */
    Duration nextArrival(int fn, Duration now, Rng &rng) const;

  private:
    double diurnalFactor(Duration t) const;

    TrafficConfig cfg;
    std::vector<func::FunctionProfile> profiles;
    std::vector<int> tenants;
    std::vector<double> baseRates;
    std::vector<std::vector<bool>> burstMembers;
    std::vector<double> burstPeaks; ///< per-fn product of multipliers
    std::vector<Duration> periods;  ///< timer period, 0 = Poisson
    std::vector<Duration> phases;   ///< timer phase in [0, period)
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_TRAFFIC_HH

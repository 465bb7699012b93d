#include "cluster/traffic.hh"

#include <cmath>

#include "cluster/azure_workload.hh"
#include "util/logging.hh"

namespace vhive::cluster {

TrafficEngine::TrafficEngine(TrafficConfig config) : cfg(std::move(config))
{
    VHIVE_ASSERT(cfg.functions >= 1);
    VHIVE_ASSERT(cfg.tenants >= 1);
    VHIVE_ASSERT(cfg.zipfExponent >= 0);
    VHIVE_ASSERT(cfg.aggregateRps > 0);
    VHIVE_ASSERT(cfg.diurnal.amplitude >= 0 &&
                 cfg.diurnal.amplitude <= 0.95);
    VHIVE_ASSERT(cfg.diurnal.period > 0);

    // Profiles: same synthesis scheme as the Azure mix, cycling
    // kMixProfilePool, with a distinct name prefix so traffic- and
    // mix-driven fleets never collide.
    profiles.reserve(static_cast<size_t>(cfg.functions));
    for (int i = 0; i < cfg.functions; ++i)
        profiles.push_back(mixProfile({}, cfg.seed, i, "tr"));

    // Uniform tenant assignment from a named sub-stream.
    Rng trng(cfg.seed, "traffic-tenants");
    tenants.reserve(static_cast<size_t>(cfg.functions));
    for (int i = 0; i < cfg.functions; ++i)
        tenants.push_back(
            static_cast<int>(trng.uniformInt(0, cfg.tenants - 1)));

    // Zipf base rates: rank == index (function 0 is the hottest),
    // normalized so the population sums to aggregateRps.
    double norm = 0;
    for (int i = 0; i < cfg.functions; ++i)
        norm += std::pow(static_cast<double>(i + 1), -cfg.zipfExponent);
    baseRates.reserve(static_cast<size_t>(cfg.functions));
    for (int i = 0; i < cfg.functions; ++i)
        baseRates.push_back(
            cfg.aggregateRps *
            std::pow(static_cast<double>(i + 1), -cfg.zipfExponent) /
            norm);

    // Periodic (cron-like) class: membership, period and phase from
    // one named stream, three draws per function regardless of
    // outcome so one function's membership never shifts another's
    // period.
    VHIVE_ASSERT(cfg.periodicFraction >= 0 &&
                 cfg.periodicFraction <= 1);
    VHIVE_ASSERT(cfg.periodicMinPeriod > 0 &&
                 cfg.periodicMaxPeriod >= cfg.periodicMinPeriod);
    periods.assign(static_cast<size_t>(cfg.functions), 0);
    phases.assign(static_cast<size_t>(cfg.functions), 0);
    if (cfg.periodicFraction > 0) {
        Rng prng(cfg.seed, "traffic-periodic");
        double lo =
            std::log(static_cast<double>(cfg.periodicMinPeriod));
        double hi =
            std::log(static_cast<double>(cfg.periodicMaxPeriod));
        for (int i = 0; i < cfg.functions; ++i) {
            bool in = prng.chance(cfg.periodicFraction);
            double u = prng.uniform();
            double v = prng.uniform();
            if (!in)
                continue;
            auto period = static_cast<Duration>(
                std::exp(lo + u * (hi - lo)));
            periods[static_cast<size_t>(i)] = period;
            phases[static_cast<size_t>(i)] =
                static_cast<Duration>(v * static_cast<double>(period));
        }
    }

    // Burst membership, precomputed per burst from its own stream so
    // adding a burst never perturbs another burst's membership.
    burstMembers.reserve(cfg.bursts.size());
    for (size_t b = 0; b < cfg.bursts.size(); ++b) {
        const BurstSpec &spec = cfg.bursts[b];
        VHIVE_ASSERT(spec.duration > 0 && spec.multiplier > 0);
        std::vector<bool> members(static_cast<size_t>(cfg.functions));
        Rng brng(cfg.seed, "traffic-burst/" + std::to_string(b));
        for (int i = 0; i < cfg.functions; ++i) {
            bool in = false;
            switch (spec.kind) {
              case BurstKind::FlashCrowd:
                in = tenants[static_cast<size_t>(i)] == spec.tenant;
                break;
              case BurstKind::DeployStorm:
                // One draw per function regardless of outcome keeps
                // membership independent of earlier functions.
                in = brng.chance(spec.fraction);
                break;
            }
            members[static_cast<size_t>(i)] = in;
        }
        burstMembers.push_back(std::move(members));
    }

    // Thinning envelope: worst-case burst stack per function.
    burstPeaks.assign(static_cast<size_t>(cfg.functions), 1.0);
    for (size_t b = 0; b < cfg.bursts.size(); ++b)
        for (int i = 0; i < cfg.functions; ++i)
            if (burstAffects(static_cast<int>(b), i) &&
                cfg.bursts[b].multiplier > 1.0)
                burstPeaks[static_cast<size_t>(i)] *=
                    cfg.bursts[b].multiplier;
}

double
TrafficEngine::diurnalFactor(Duration t) const
{
    if (cfg.diurnal.amplitude == 0)
        return 1.0;
    double frac = static_cast<double>(t) /
                      static_cast<double>(cfg.diurnal.period) +
                  cfg.diurnal.phase;
    constexpr double kTau = 6.283185307179586;
    return 1.0 + cfg.diurnal.amplitude * std::sin(kTau * frac);
}

double
TrafficEngine::rateAt(int fn, Duration t) const
{
    if (isPeriodic(fn))
        return 1e9 / static_cast<double>(periodOf(fn));
    double rate = baseRate(fn) * diurnalFactor(t);
    for (size_t b = 0; b < cfg.bursts.size(); ++b) {
        const BurstSpec &spec = cfg.bursts[b];
        if (t >= spec.start && t < spec.start + spec.duration &&
            burstAffects(static_cast<int>(b), fn))
            rate *= spec.multiplier;
    }
    return rate;
}

double
TrafficEngine::peakRate(int fn) const
{
    if (isPeriodic(fn))
        return 1e9 / static_cast<double>(periodOf(fn));
    return baseRate(fn) * (1.0 + cfg.diurnal.amplitude) *
           burstPeaks[static_cast<size_t>(fn)];
}

double
TrafficEngine::expectedArrivals(int fn, Duration t0, Duration t1) const
{
    if (t1 <= t0)
        return 0;
    // Trapezoidal integration, fine enough that burst edges (step
    // functions narrower than one slice) still integrate to within
    // a slice's worth of rate.
    constexpr int kSlices = 4096;
    double dt = static_cast<double>(t1 - t0) / kSlices;
    double sum = 0;
    for (int k = 0; k < kSlices; ++k) {
        Duration ta = t0 + static_cast<Duration>(dt * k);
        Duration tb = t0 + static_cast<Duration>(dt * (k + 1));
        sum += 0.5 * (rateAt(fn, ta) + rateAt(fn, tb)) * dt;
    }
    return sum / 1e9; // rates are 1/sec, dt is ns
}

Duration
TrafficEngine::nextArrival(int fn, Duration now, Rng &rng) const
{
    if (Duration period = periodOf(fn); period > 0) {
        // Timer arrivals: the first grid point strictly after @p now,
        // plus a small uniform jitter. Exactly one draw per arrival,
        // so the stream stays aligned for every consumer (the fleet's
        // arrival loops, oracle replay).
        Duration phase = phases[static_cast<size_t>(fn)];
        std::int64_t k =
            now < phase ? 0 : (now - phase) / period + 1;
        Duration jitter = static_cast<Duration>(
            rng.uniform() * kPeriodicJitter *
            static_cast<double>(period));
        Duration t = phase + k * period + jitter;
        if (t <= now)
            t = phase + (k + 1) * period + jitter;
        return t;
    }
    // Lewis-Shedler thinning: candidate gaps at the envelope rate,
    // accepted with probability rate(t)/peak. Acceptance is bounded
    // below by (1 - amplitude) / ((1 + amplitude) * burstPeak) > 0,
    // so the loop terminates with probability 1.
    double peak = peakRate(fn);
    VHIVE_ASSERT(peak > 0);
    double mean_gap_ns = 1e9 / peak;
    Duration t = now;
    for (;;) {
        Duration gap = static_cast<Duration>(
            rng.exponential(mean_gap_ns));
        t += std::max<Duration>(1, gap);
        if (rng.uniform() < rateAt(fn, t) / peak)
            return t;
    }
}

} // namespace vhive::cluster

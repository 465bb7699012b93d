/**
 * @file
 * Helpers for scripted ParallelFleet runs in tests: profile lists and
 * the arrival shapes the fleet suites drive through a FleetClient
 * (concurrent bursts, open-loop Poisson, closed-loop clients). Every
 * helper runs in the control domain.
 */

#ifndef VHIVE_TESTS_FLEET_SCRIPT_HH
#define VHIVE_TESTS_FLEET_SCRIPT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/parallel_fleet.hh"
#include "func/profile.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace vhive::cluster::testing {

/** The named functionBench profiles, in order. */
inline std::vector<func::FunctionProfile>
profilesOf(const std::vector<std::string> &names)
{
    std::vector<func::FunctionProfile> out;
    for (const std::string &n : names)
        out.push_back(func::profileByName(n));
    return out;
}

/** One invocation of @p name, then arrive at @p done. */
inline sim::Task<void>
invokeThenArrive(FleetClient &c, std::string name, sim::Latch *done)
{
    (void)co_await c.invoke(name);
    done->arrive();
}

/** @p n simultaneous invocations of @p name; returns when all have
 * completed. */
inline sim::Task<void>
burst(FleetClient &c, std::string name, int n)
{
    sim::Latch done(c.sim(), n);
    for (int i = 0; i < n; ++i)
        c.sim().spawn(invokeThenArrive(c, name, &done));
    co_await done.wait();
}

/**
 * Open-loop Poisson arrivals: @p count invocations of @p name at
 * exponential gaps of mean @p mean, fired whether or not earlier ones
 * completed; returns when all have completed.
 */
inline sim::Task<void>
poisson(FleetClient &c, std::string name, Duration mean,
        std::int64_t count, std::uint64_t seed)
{
    Rng rng(seed, "poisson/" + name);
    sim::Latch done(c.sim(), count);
    for (std::int64_t i = 0; i < count; ++i) {
        co_await c.sim().delay(static_cast<Duration>(
            rng.exponential(static_cast<double>(mean))));
        c.sim().spawn(invokeThenArrive(c, name, &done));
    }
    co_await done.wait();
}

/** One closed-loop client: invoke, think, repeat until *@p stop. */
inline sim::Task<void>
closedLoopClient(FleetClient &c, std::string name, Duration think,
                 const bool *stop, std::int64_t *completed,
                 sim::Latch *exited)
{
    while (!*stop) {
        (void)co_await c.invoke(name);
        ++*completed;
        co_await c.sim().delay(think);
    }
    exited->arrive();
}

/**
 * @p clients closed-loop clients of @p name with think time @p think
 * for @p duration; returns once every client finished its last
 * invocation. @return completed invocations.
 */
inline sim::Task<std::int64_t>
closedLoop(FleetClient &c, std::string name, int clients, Duration think,
           Duration duration)
{
    bool stop = false;
    std::int64_t completed = 0;
    sim::Latch exited(c.sim(), clients);
    for (int i = 0; i < clients; ++i)
        c.sim().spawn(
            closedLoopClient(c, name, think, &stop, &completed, &exited));
    co_await c.sim().delay(duration);
    stop = true;
    co_await exited.wait();
    co_return completed;
}

} // namespace vhive::cluster::testing

#endif // VHIVE_TESTS_FLEET_SCRIPT_HH

/**
 * @file
 * Sec. 6.3 (background-traffic study): repeat the REAP cold-start
 * measurement while 20 memory-resident (warm) functions serve steady
 * invocation traffic on the same worker. The paper observes results
 * within 5% of the idle-host numbers.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "net/rpc.hh"
#include "sim/sync.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

/** One keep-warm invocation of @p name behind the front-end's fabric
 * hop each way. */
sim::Task<void>
frontEndInvoke(sim::Simulation &sim, core::Orchestrator &orch,
               const std::string &name)
{
    const Duration hop = net::RpcParams{}.clusterHop;
    core::InvokeOptions keep;
    keep.keepWarm = true;
    co_await sim.delay(hop);
    (void)co_await orch.invoke(name, core::ColdStartMode::Reap, keep);
    co_await sim.delay(hop);
}

/** One closed-loop client of @p name: invoke, think 150 ms, until
 * *@p stop. */
sim::Task<void>
backgroundClient(sim::Simulation &sim, core::Orchestrator &orch,
                 std::string name, const bool *stop, sim::Latch *exited)
{
    while (!*stop) {
        co_await frontEndInvoke(sim, orch, name);
        co_await sim.delay(msec(150));
    }
    exited->arrive();
}

double
measureReapCold(bool with_background)
{
    // One worker host: the measurement is per-host, so the background
    // functions are driven directly on its orchestrator.
    sim::Simulation sim;
    core::Worker worker(sim);
    auto &orch = worker.orchestrator();
    orch.registerFunction(func::profileByName("helloworld"));

    // 20 background functions (pyaes-class) kept warm by traffic.
    std::vector<std::string> bg_names;
    for (int i = 0; i < 20; ++i) {
        func::FunctionProfile p = func::profileByName("pyaes");
        p.name = "bg_" + std::to_string(i);
        bg_names.push_back(p.name);
        orch.registerFunction(p);
    }

    Samples cold_ms;
    bench::runScenario(sim, [&]() -> sim::Task<void> {
        // Snapshots in name order (bg_* first), as a fleet prepares
        // its deployments.
        std::vector<std::string> all = bg_names;
        all.push_back("helloworld");
        std::sort(all.begin(), all.end());
        for (const auto &n : all)
            co_await orch.prepareSnapshot(n);

        bool stop = false;
        sim::Latch exited(sim, with_background ? 20 : 0);
        if (with_background) {
            for (const auto &n : bg_names) {
                // Warm each background function once, then drive it.
                co_await frontEndInvoke(sim, orch, n);
                sim.spawn(backgroundClient(sim, orch, n, &stop, &exited));
            }
        }

        // Record phase for helloworld.
        orch.flushHostCaches();
        (void)co_await orch.invoke("helloworld",
                                   core::ColdStartMode::Reap);

        for (int i = 0; i < 10; ++i) {
            core::InvokeOptions opts;
            opts.flushPageCache = true;
            opts.forceCold = true;
            auto bd = co_await orch.invoke(
                "helloworld", core::ColdStartMode::Reap, opts);
            cold_ms.add(toMs(bd.total));
            co_await sim.delay(msec(200));
        }
        stop = true;
        co_await exited.wait();
    });
    return cold_ms.mean();
}

} // namespace

int
main()
{
    bench::banner("Sec. 6.3: REAP cold starts with 20 warm background "
                  "functions");

    double idle = measureReapCold(false);
    double busy = measureReapCold(true);
    double delta = (busy / idle - 1.0) * 100.0;

    Table t({"scenario", "helloworld_reap_cold_ms"});
    t.row().cell("idle host").cell(idle, 1);
    t.row().cell("20 warm functions serving traffic").cell(busy, 1);
    t.print();

    std::printf("\nDelta: %+.1f%% (paper: within 5%%)\n", delta);
    return 0;
}

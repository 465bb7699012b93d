/**
 * @file
 * Predictive control plane suite (ROADMAP item 2): the hybrid-
 * histogram predictor's determinism, pre-warm exactly-once accounting
 * at the orchestrator (including an invocation arriving mid-pre-warm),
 * bit-identity of a dormant policy against no policy at all, and
 * digest stability of the parallel kernel across thread counts with
 * an active policy issuing pre-warms.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/control_policy.hh"
#include "cluster/parallel_fleet.hh"
#include "cluster/traffic.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive {
namespace {

using core::ColdStartMode;
using core::InvokeOptions;
using core::Worker;
using core::WorkerConfig;
using sim::Simulation;
using sim::Task;

template <typename Fn>
void
runScenario(Simulation &sim, Fn &&body)
{
    struct Runner {
        static Task<void>
        run(Fn &body)
        {
            co_await body();
        }
    };
    sim.spawn(Runner::run(body));
    sim.run();
}

// ----------------------------------------------------- the predictor

TEST(InterarrivalHistogram, PercentilesAreDeterministicAndOrdered)
{
    cluster::InterarrivalHistogram a, b;
    for (Duration gap : {sec(10), sec(12), sec(9), sec(11), sec(10),
                         sec(13), sec(8)}) {
        a.note(gap);
        b.note(gap);
    }
    // Same feed, same structure: the predictor draws no randomness.
    EXPECT_EQ(a.count(), b.count());
    for (double p : {5.0, 50.0, 95.0, 99.0})
        EXPECT_EQ(a.percentileGap(p), b.percentileGap(p)) << "p" << p;
    EXPECT_LE(a.percentileGap(5), a.percentileGap(50));
    EXPECT_LE(a.percentileGap(50), a.percentileGap(99));
    // 8-13 s gaps span two adjacent 5 s bins: well inside any sane
    // spread limit.
    EXPECT_FALSE(a.outOfBounds(6));
}

TEST(InterarrivalHistogram, DispersedHistoryFallsOutOfBounds)
{
    cluster::InterarrivalHistogram h;
    EXPECT_TRUE(h.outOfBounds(6)); // empty history cannot predict
    for (Duration gap : {msec(2), msec(40), sec(1), sec(30), sec(900),
                         sec(3000)})
        h.note(gap);
    // [p5, p99] spans nearly the whole bucket range.
    EXPECT_TRUE(h.outOfBounds(6));
}

TEST(HybridHistogramPolicy, RegularArrivalsYieldDeterministicPreWarm)
{
    // Two policy instances fed identical arrivals must emit identical
    // action streams, and a regular inter-arrival pattern must yield
    // a PreWarm just ahead of the predicted window.
    cluster::HybridHistogramPolicy a, b;
    Time t = 0;
    for (int i = 0; i < 6; ++i) {
        t = sec(10) * (i + 1);
        a.noteArrival("fn", t);
        b.noteArrival("fn", t);
    }

    cluster::ControlTickContext ctx;
    ctx.workers = 4;
    cluster::ControlFunctionView v;
    v.name = "fn";
    v.homeWorker = 2;
    v.idleInstances = 0;
    v.homeChunkResidency = 1.0;
    ctx.functions.push_back(v);

    bool saw_prewarm = false;
    for (Duration dt = sec(2); dt <= sec(14); dt += sec(2)) {
        ctx.now = t + dt;
        std::vector<cluster::ControlAction> out_a, out_b;
        a.tick(ctx, out_a);
        b.tick(ctx, out_b);
        ASSERT_EQ(out_a.size(), out_b.size()) << "dt=" << dt;
        for (std::size_t i = 0; i < out_a.size(); ++i) {
            EXPECT_EQ(out_a[i].kind, out_b[i].kind);
            EXPECT_EQ(out_a[i].function, out_b[i].function);
            EXPECT_EQ(out_a[i].worker, out_b[i].worker);
            if (out_a[i].kind ==
                cluster::ControlAction::Kind::PreWarm) {
                saw_prewarm = true;
                EXPECT_EQ(out_a[i].worker, 2); // hash-home target
            }
        }
    }
    EXPECT_TRUE(saw_prewarm);
}

TEST(HybridHistogramPolicy, IdleOrWarmingFunctionsAreLeftAlone)
{
    cluster::HybridHistogramPolicy p;
    for (int i = 1; i <= 6; ++i)
        p.noteArrival("fn", sec(10) * i);

    cluster::ControlTickContext ctx;
    ctx.now = sec(68);
    cluster::ControlFunctionView v;
    v.name = "fn";
    v.idleInstances = 1; // already warm: nothing to do
    v.homeChunkResidency = 1.0;
    ctx.functions.push_back(v);
    std::vector<cluster::ControlAction> out;
    p.tick(ctx, out);
    EXPECT_TRUE(out.empty());

    ctx.functions[0].idleInstances = 0;
    ctx.functions[0].warming = true; // pre-warm already in flight
    out.clear();
    p.tick(ctx, out);
    EXPECT_TRUE(out.empty());
}

// -------------------------------------- orchestrator-level pre-warm

/** Worker with a recorded TieredReap snapshot of @p name, gone cold. */
struct ColdHost
{
    Simulation sim;
    WorkerConfig cfg;
    std::unique_ptr<Worker> w;

    explicit ColdHost(const std::string &name)
    {
        w = std::make_unique<Worker>(sim, cfg);
        auto &orch = w->orchestrator();
        orch.registerFunction(func::profileByName(name));
        runScenario(sim, [&]() -> Task<void> {
            co_await orch.prepareSnapshot(name);
            InvokeOptions opts;
            opts.forceCold = true;
            (void)co_await orch.invoke(name, ColdStartMode::TieredReap,
                                       opts);
        });
    }
};

TEST(PreWarm, PreWarmThenInvokeServedExactlyOnce)
{
    ColdHost host("pyaes");
    auto &orch = host.w->orchestrator();
    std::int64_t cold0 = orch.stats("pyaes").coldInvocations;

    core::LatencyBreakdown warm_bd, again_bd;
    runScenario(host.sim, [&]() -> Task<void> {
        auto pre = co_await orch.preWarm("pyaes",
                                         ColdStartMode::BackgroundWarm);
        EXPECT_GT(pre.total, 0);
        EXPECT_EQ(orch.idleInstanceCount("pyaes"), 1);

        InvokeOptions opts;
        opts.keepWarm = true;
        warm_bd = co_await orch.invoke(
            "pyaes", ColdStartMode::BackgroundWarm, opts);
        again_bd = co_await orch.invoke(
            "pyaes", ColdStartMode::BackgroundWarm, opts);
    });

    const auto &st = orch.stats("pyaes");
    // The pre-warm is not an invocation: cold count unchanged, one
    // preWarm recorded, and the first real invocation lands warm on
    // the pre-warmed instance — exactly once.
    EXPECT_EQ(st.coldInvocations, cold0);
    EXPECT_EQ(st.preWarms, 1);
    EXPECT_FALSE(warm_bd.cold);
    EXPECT_TRUE(warm_bd.preWarmHit);
    EXPECT_EQ(st.preWarmHits, 1);
    // The hit is consumed: later warm invocations are ordinary.
    EXPECT_FALSE(again_bd.cold);
    EXPECT_FALSE(again_bd.preWarmHit);
    EXPECT_EQ(st.warmInvocations, 2);
    EXPECT_EQ(orch.wastedPreWarms(), 0);
}

TEST(PreWarm, MidWarmArrivalWaitsAndLandsPartiallyWarmed)
{
    ColdHost host("pyaes");
    auto &orch = host.w->orchestrator();
    std::int64_t cold0 = orch.stats("pyaes").coldInvocations;

    core::LatencyBreakdown bd;
    Duration full_warm = 0;
    runScenario(host.sim, [&]() -> Task<void> {
        struct Pre {
            static Task<void>
            run(core::Orchestrator &orch, Duration *took)
            {
                auto b = co_await orch.preWarm(
                    "pyaes", ColdStartMode::BackgroundWarm);
                *took = b.total;
            }
        };
        host.sim.spawn(Pre::run(orch, &full_warm));
        // The pre-warm pays its CRI control-plane hop before the
        // warming instance exists; step past it, but stay far short
        // of the ~100 ms working-set load so the arrival is genuinely
        // mid-warm.
        for (int i = 0; i < 8 && orch.warmingCount("pyaes") == 0; ++i)
            co_await host.sim.delay(msec(1));
        // The pre-warm is mid-load: the invocation must wait on its
        // ready gate and then serve warm, not start a second cold
        // path — a partially-warmed start.
        EXPECT_EQ(orch.warmingCount("pyaes"), 1);
        InvokeOptions opts;
        opts.keepWarm = true;
        bd = co_await orch.invoke(
            "pyaes", ColdStartMode::BackgroundWarm, opts);
    });

    const auto &st = orch.stats("pyaes");
    EXPECT_GT(full_warm, 0);
    EXPECT_FALSE(bd.cold);
    EXPECT_TRUE(bd.preWarmHit);
    EXPECT_EQ(st.preWarms, 1);
    EXPECT_EQ(st.preWarmHits, 1);
    EXPECT_EQ(st.warmInvocations, 1);
    EXPECT_EQ(st.coldInvocations, cold0);
    EXPECT_EQ(orch.wastedPreWarms(), 0);
}

TEST(PreWarm, UnservedPreWarmIsCountedWasted)
{
    ColdHost host("pyaes");
    auto &orch = host.w->orchestrator();

    runScenario(host.sim, [&]() -> Task<void> {
        (void)co_await orch.preWarm("pyaes",
                                    ColdStartMode::BackgroundWarm);
        (void)co_await orch.stopIdleInstances("pyaes");
    });
    EXPECT_EQ(orch.stats("pyaes").preWarms, 1);
    EXPECT_EQ(orch.stats("pyaes").preWarmHits, 0);
    EXPECT_EQ(orch.wastedPreWarms(), 1);
}

// ----------------------------------------- cluster-level bit identity

struct FleetRun
{
    std::int64_t invocations = 0;
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;
    std::int64_t messages = 0;
    std::vector<double> e2e;

    /** Digest of every simulated observable: the kernel's own
     * event and window counts (a policy's tick events) left out. */
    std::uint64_t digest = 0;
};

FleetRun
runTrafficFleet(bool dormant_policy)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 2;
    cfg.coldStartMode = ColdStartMode::TieredReap;
    cfg.sharedSnapshots = true;
    cfg.keepAlive = sec(15);
    cluster::TrafficConfig tcfg;
    tcfg.functions = 6;
    tcfg.tenants = 2;
    tcfg.aggregateRps = 0.5;
    tcfg.horizon = sec(150);
    cfg.traffic = tcfg;
    if (dormant_policy)
        cfg.controlPolicy = cluster::ControlPolicyKind::HybridHistogram;
    cluster::ParallelFleet c(cfg);
    if (dormant_policy) {
        // A policy that observes every tick but never acts must leave
        // the simulation bit-identical to running no policy at all
        // (the structural-determinism contract: ticks are pure).
        c.controlPolicies().registerPolicy(
            cluster::ControlPolicyKind::HybridHistogram,
            std::make_unique<cluster::NoControlPolicy>());
    }

    cluster::FleetStats wr = c.run();
    FleetRun r;
    r.invocations = wr.invocations;
    r.coldStarts = wr.coldStarts;
    r.warmHits = wr.warmHits;
    r.messages = wr.messages;
    r.e2e = wr.e2eLatencyMs.values();
    wr.eventsProcessed = 0;
    wr.windows = 0;
    r.digest = wr.digest();
    return r;
}

TEST(ControlFleet, DormantPolicyBitIdenticalToNoPolicy)
{
    FleetRun base = runTrafficFleet(false);
    FleetRun dormant = runTrafficFleet(true);

    ASSERT_GT(base.invocations, 5);
    EXPECT_EQ(base.invocations, dormant.invocations);
    EXPECT_EQ(base.coldStarts, dormant.coldStarts);
    EXPECT_EQ(base.warmHits, dormant.warmHits);
    // The ticks send nothing: no request, no hint.
    EXPECT_EQ(base.messages, dormant.messages);
    EXPECT_EQ(base.e2e, dormant.e2e);
    // Every fleet counter, not only the samples: memory bill,
    // per-worker rows, store and registry counters.
    EXPECT_EQ(base.digest, dormant.digest);
}

TEST(ControlFleet, ActivePolicyPreWarmsAndCutsColds)
{
    auto run = [](cluster::ControlPolicyKind policy) {
        cluster::ParallelFleetConfig cfg;
        cfg.workers = 2;
        cfg.coldStartMode = ColdStartMode::TieredReap;
        cfg.sharedSnapshots = true;
        cfg.keepAlive = sec(15);
        cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
        cfg.controlPolicy = policy;
        cluster::TrafficConfig tcfg;
        tcfg.functions = 8;
        tcfg.tenants = 2;
        tcfg.aggregateRps = 0.4;
        tcfg.horizon = sec(240);
        cfg.traffic = tcfg;
        cluster::ParallelFleet c(cfg);
        cluster::FleetStats fs = c.run();
        EXPECT_EQ(fs.coldStarts + fs.warmHits + fs.failedInvocations,
                  fs.invocations);
        return fs;
    };

    cluster::FleetStats fs_none = run(cluster::ControlPolicyKind::None);
    cluster::FleetStats fs_hybrid =
        run(cluster::ControlPolicyKind::HybridHistogram);

    EXPECT_EQ(fs_none.preWarms, 0);
    EXPECT_GT(fs_hybrid.preWarms, 0);
    EXPECT_GT(fs_hybrid.preWarmHits, 0);
    // The point of the layer: pre-warming converts cold starts.
    EXPECT_LT(fs_hybrid.coldStarts, fs_none.coldStarts);
    // And the waste accounting runs: an always-on fleet integrates
    // idle-warm byte-seconds under either policy.
    EXPECT_GT(fs_hybrid.wastedResidentByteSec, 0.0);
}

/** Emits one positive ScaleHint per tick: cold p99 is "over target". */
class AlwaysHoldPolicy final : public cluster::ControlPolicy
{
  public:
    const char *name() const override { return "always-hold"; }
    void noteArrival(const std::string &, Time) override {}
    void tick(const cluster::ControlTickContext &,
              std::vector<cluster::ControlAction> &out) override
    {
        cluster::ControlAction a;
        a.kind = cluster::ControlAction::Kind::ScaleHint;
        a.hint = 2;
        out.push_back(a);
    }
};

TEST(ControlFleet, ScaleHintHoldsJanitorSweeps)
{
    // A ScaleHint travels to every worker and parks its keep-alive
    // sweeps: the idle instance outlives keepAlive while hints keep
    // arriving, and scales to zero without them.
    auto run = [](bool hold) {
        cluster::ParallelFleetConfig cfg;
        cfg.workers = 2;
        cfg.coldStartMode = ColdStartMode::Reap;
        cfg.keepAlive = sec(5);
        cfg.scalePeriod = sec(1);
        cfg.controlPolicy = cluster::ControlPolicyKind::HybridHistogram;
        cluster::ParallelFleet fleet(cfg);
        // Both runs tick; only the held one ever acts.
        std::unique_ptr<cluster::ControlPolicy> policy;
        if (hold)
            policy = std::make_unique<AlwaysHoldPolicy>();
        else
            policy = std::make_unique<cluster::NoControlPolicy>();
        fleet.controlPolicies().registerPolicy(
            cluster::ControlPolicyKind::HybridHistogram, std::move(policy));
        std::int64_t idle = -1;
        (void)fleet.run(
            {func::profileByName("helloworld")},
            [&idle](cluster::FleetClient &c) -> Task<void> {
                (void)co_await c.invoke("helloworld");
                co_await c.sim().delay(sec(60));
                idle = c.idleInstances("helloworld");
            });
        return std::pair{fleet.stats("helloworld").scaleDowns, idle};
    };
    auto [free_downs, free_idle] = run(false);
    EXPECT_EQ(free_downs, 1);
    EXPECT_EQ(free_idle, 0);
    auto [held_downs, held_idle] = run(true);
    EXPECT_EQ(held_downs, 0);
    EXPECT_EQ(held_idle, 1);
}

// --------------------------------------------------- parallel kernel

TEST(ControlParallel, ActivePolicyDigestStableAcrossThreadCounts)
{
    // The control tick runs in domain 0 against the mirrored view, so
    // an actively pre-warming fleet must stay bit-identical across
    // sim thread counts.
    auto run_fleet = [](int threads) {
        cluster::ParallelFleetConfig cfg;
        cfg.workers = 4;
        cfg.simThreads = threads;
        cfg.coldStartMode = core::ColdStartMode::TieredReap;
        cfg.sharedSnapshots = true;
        cfg.sharedStoreShards = 2;
        cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
        cfg.controlPolicy = cluster::ControlPolicyKind::HybridHistogram;
        cfg.keepAlive = sec(15);
        cluster::TrafficConfig tc;
        tc.functions = 8;
        tc.tenants = 3;
        tc.aggregateRps = 0.5;
        tc.horizon = sec(150);
        cluster::BurstSpec crowd;
        crowd.kind = cluster::BurstKind::FlashCrowd;
        crowd.tenant = 1;
        crowd.start = sec(50);
        crowd.duration = sec(20);
        crowd.multiplier = 8.0;
        tc.bursts.push_back(crowd);
        cfg.traffic = tc;
        cluster::ParallelFleet fleet(cfg);
        return fleet.run();
    };

    cluster::ParallelFleetResult ref = run_fleet(1);
    ASSERT_GT(ref.invocations, 0);
    // The policy genuinely acted on the parallel kernel.
    EXPECT_GT(ref.preWarms, 0);
    EXPECT_EQ(ref.coldStarts + ref.warmHits, ref.invocations);
    std::uint64_t ref_digest = ref.digest();
    for (int threads : {2, 4, 8}) {
        cluster::ParallelFleetResult r = run_fleet(threads);
        EXPECT_EQ(r.digest(), ref_digest) << "threads=" << threads;
        EXPECT_EQ(r.preWarms, ref.preWarms) << "threads=" << threads;
    }
}

TEST(ControlParallel, WastedPreWarmsReportedAcrossThreadCounts)
{
    // Pre-warms for arrivals that never come retire unused when the
    // keep-alive sweep reaps them. The fleet reports them through
    // its per-worker fold, and its digest covers them, identically on
    // every sim thread count.
    auto run_fleet = [](int threads) {
        cluster::ParallelFleetConfig cfg;
        cfg.workers = 4;
        cfg.simThreads = threads;
        cfg.coldStartMode = core::ColdStartMode::TieredReap;
        cfg.sharedSnapshots = true;
        cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
        cfg.controlPolicy = cluster::ControlPolicyKind::HybridHistogram;
        cfg.keepAlive = sec(15);
        cluster::TrafficConfig tc;
        tc.functions = 8;
        tc.tenants = 3;
        tc.aggregateRps = 0.5;
        tc.horizon = sec(150);
        cfg.traffic = tc;
        cluster::ParallelFleet fleet(cfg);
        return fleet.run();
    };

    // Measured at this size: 13 of 30 completed pre-warm requests
    // retire unused, 14 serve an invocation.
    cluster::FleetStats ref = run_fleet(1);
    ASSERT_GT(ref.preWarms, 0);
    EXPECT_GT(ref.wastedPreWarms, 0);
    EXPECT_LE(ref.preWarmHits + ref.wastedPreWarms, ref.preWarms);
    cluster::FleetStats bumped = ref;
    ++bumped.wastedPreWarms;
    EXPECT_NE(bumped.digest(), ref.digest());
    for (int threads : {2, 4}) {
        cluster::FleetStats r = run_fleet(threads);
        EXPECT_EQ(r.wastedPreWarms, ref.wastedPreWarms)
            << "threads=" << threads;
        EXPECT_EQ(r.digest(), ref.digest()) << "threads=" << threads;
    }
}

TEST(ControlParallel, NoPolicySpawnsNoControlMachinery)
{
    // controlPolicy=None spawns no tick loop at all, so the tick
    // period must be inert: if any control-plane event ran under
    // None, shrinking the period 20x would perturb the digest.
    auto run_fleet = [](Duration control_period) {
        cluster::ParallelFleetConfig cfg;
        cfg.workers = 3;
        cfg.simThreads = 2;
        cfg.workload.functions = 5;
        cfg.workload.minInterarrival = sec(2);
        cfg.workload.maxInterarrival = sec(20);
        cfg.workload.horizon = sec(90);
        cfg.controlPolicy = cluster::ControlPolicyKind::None;
        cfg.controlPeriod = control_period;
        cluster::ParallelFleet fleet(cfg);
        return fleet.run().digest();
    };
    EXPECT_EQ(run_fleet(sec(2)), run_fleet(msec(100)));
}

} // namespace
} // namespace vhive

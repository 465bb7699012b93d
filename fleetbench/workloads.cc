#include "fleetbench/workloads.hh"

#include "cluster/control_policy.hh"
#include "cluster/routing_policy.hh"
#include "cluster/traffic.hh"
#include "core/options.hh"
#include "sim/fault.hh"
#include "storage/eviction.hh"
#include "util/units.hh"

namespace fleetbench {

using namespace vhive;

namespace {

Duration
scaled(Duration d, double scale)
{
    return static_cast<Duration>(static_cast<double>(d) * scale);
}

/**
 * azure-reap: a closed-loop Azure mix on 16 workers, one sim thread,
 * per-worker REAP. Trace synthesis and fault modelling dominate the
 * host time; the thread pool, the store domain and every byte budget
 * stay idle, so a threading, store or cache change should move
 * nothing here.
 */
cluster::ParallelFleetConfig
azureReap(std::uint64_t seed, double scale)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 16;
    cfg.simThreads = 1;
    cfg.coldStartMode = core::ColdStartMode::Reap;
    cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
    // Mean gaps of 20-40 s against a 10 s keep-alive: about two thirds
    // of invocations are cold starts, so the fleet's e2e median lies
    // in the continuous cold-start distribution rather than on one
    // function's fixed warm latency.
    cfg.keepAlive = sec(10);
    // Five functions per profile of the default pool. The narrow
    // interarrival range keeps the seed from reweighting profiles (a
    // wide range lets one seed make a fast profile dominant and move
    // every percentile by a whole profile's latency).
    cfg.workload.functions = 35;
    cfg.workload.minInterarrival = sec(20);
    cfg.workload.maxInterarrival = sec(40);
    cfg.workload.horizon = scaled(sec(1200), scale);
    cfg.workload.seed = seed;
    return cfg;
}

/**
 * burst-shared: 64 workers staging DedupReap chunks through the sharded
 * store domain, driven open-loop by the TrafficEngine. The only
 * workload where the parallel kernel, cross-domain ports, the sharded
 * store and chunk dedup carry the load.
 */
cluster::ParallelFleetConfig
burstShared(std::uint64_t seed, double scale)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 64;
    // Two sim threads, not four: on a 4-core host four threads share
    // every core with the rest of the machine, and identical passes
    // read 8.9-23 s of wall time against 7.1-7.7 s on two threads.
    // The 4-thread wall time is still measured, as sim.speedup_4t.
    cfg.simThreads = 2;
    cfg.coldStartMode = core::ColdStartMode::DedupReap;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 4;
    cfg.chunkPlacement = net::ChunkPlacementPolicy::OverlapAware;
    // Warm-first spreads invocations, so cold starts land away from
    // each function's home worker and pull through the shared store.
    cfg.routingPolicy = cluster::RoutingPolicyKind::WarmFirst;
    // A 1 s keep-alive makes about three quarters of invocations cold
    // starts: the crowd and the storm then pile chunk fetches onto the
    // store, and the e2e median lies among cold starts.
    cfg.keepAlive = sec(1);

    cluster::TrafficConfig tc;
    tc.functions = 64;
    tc.tenants = 8;
    // A flatter Zipf and a gentler crowd than bench_fleet_cold_p99's
    // bursty cell: which functions land in the crowd's tenant is a
    // per-seed draw, and a steep head or a 12x crowd lets that draw
    // swing the cold fraction by a quarter between seeds.
    tc.zipfExponent = 0.6;
    tc.aggregateRps = 4.0;
    tc.horizon = scaled(sec(300), scale);
    tc.seed = seed;
    tc.diurnal.amplitude = 0.4;
    tc.diurnal.period = tc.horizon;
    cluster::BurstSpec crowd;
    crowd.kind = cluster::BurstKind::FlashCrowd;
    crowd.tenant = 2;
    crowd.start = scaled(sec(120), scale);
    crowd.duration = scaled(sec(30), scale);
    crowd.multiplier = 6.0;
    tc.bursts.push_back(crowd);
    cluster::BurstSpec storm;
    storm.kind = cluster::BurstKind::DeployStorm;
    storm.fraction = 0.25;
    storm.start = scaled(sec(200), scale);
    storm.duration = scaled(sec(20), scale);
    storm.multiplier = 6.0;
    tc.bursts.push_back(storm);
    cfg.traffic = tc;
    return cfg;
}

/**
 * budget-churn: 8 workers, one sim thread, DedupReap shared over two
 * shards, with the hybrid-histogram control policy, byte budgets on
 * every tier and seeded store stragglers and request errors. The same
 * mem/storage/net layers as burst-shared, loaded with writes and
 * evictions beside the reads.
 */
cluster::ParallelFleetConfig
budgetChurn(std::uint64_t seed, double scale)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 8;
    cfg.simThreads = 1;
    cfg.coldStartMode = core::ColdStartMode::DedupReap;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 2;
    cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
    cfg.keepAlive = sec(5);
    cfg.scalePeriod = sec(1);
    cfg.controlPolicy = cluster::ControlPolicyKind::HybridHistogram;

    core::ReapOptions &reap = cfg.worker.reap;
    // Budgets near two thirds of each tier's unbounded peak on this
    // traffic: every tier evicts, none thrashes.
    reap.pageCacheBudget = 48 * kMiB;
    reap.chunkCacheBudget = 48 * kMiB;
    reap.ssdBudget = 16 * kMiB;
    reap.evictionPolicy = storage::EvictionPolicyKind::SharingAware;
    reap.hedgeAfter = msec(20);
    // Refcount-protected: every staged chunk stays referenced here, so
    // the index is checked against its budget but never evicts.
    cfg.registryChunkBudget = 160 * kMiB;
    cfg.registryEvictionPolicy = storage::EvictionPolicyKind::SharingAware;

    cluster::TrafficConfig tc;
    tc.functions = 48;
    tc.tenants = 4;
    tc.zipfExponent = 0.5;
    tc.aggregateRps = 2.5;
    tc.horizon = scaled(sec(900), scale);
    tc.seed = seed;
    // Half cron-like timers (what the histogram policy predicts and
    // pre-warms), half Zipf/Poisson (what it cannot).
    tc.periodicFraction = 0.5;
    tc.periodicMinPeriod = sec(40);
    tc.periodicMaxPeriod = sec(120);
    cfg.traffic = tc;

    // Faults on every store, for the whole run.
    auto fault = [&](sim::FaultKind kind, double magnitude,
                     double probability) {
        sim::FaultSpec s;
        s.kind = kind;
        s.target = "store/*";
        s.windows.push_back(sim::FaultWindow{0, sim::kNeverTime, magnitude,
                                             probability});
        cfg.storeFaults.push_back(s);
    };
    fault(sim::FaultKind::Straggler, 8.0, 0.05);
    fault(sim::FaultKind::RequestError, 1.0, 0.05);
    cfg.faultSeed = seed;
    return cfg;
}

} // namespace

std::optional<cluster::ParallelFleetConfig>
workloadConfig(const std::string &name, std::uint64_t seed,
               double horizon_scale)
{
    if (name == "azure-reap")
        return azureReap(seed, horizon_scale);
    if (name == "burst-shared")
        return burstShared(seed, horizon_scale);
    if (name == "budget-churn")
        return budgetChurn(seed, horizon_scale);
    return std::nullopt;
}

const char *
workloadNames()
{
    return "azure-reap, burst-shared, budget-churn";
}

} // namespace fleetbench

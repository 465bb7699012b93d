/**
 * @file
 * The fleet runtime: vHive's control plane, worker hosts and shared
 * snapshot store, sharded over a sim::ParallelKernel so each worker
 * host simulates on its own core.
 *
 * Domain layout: domain 0 is the control plane (front-end router,
 * queue-proxy admission, crash retries, the scripted client and the
 * autoscaler bookkeeping mirror); domains 1..W are worker hosts, each
 * owning a full core::Worker (disk, stores, orchestrator, uffd) and
 * its keep-alive janitor. All cross-domain interaction flows through
 * two CrossPorts per worker (requests and control notices down,
 * completion/scale notices up), both with the cluster fabric-hop
 * latency (net::RpcParams::clusterHop, 500 us) — which is also the
 * kernel's lookahead, so a window spans one fabric hop of simulated
 * time.
 *
 * The control plane routes on a *mirrored* view of worker
 * warm/in-flight state that trails reality by one fabric hop — exactly
 * what a distributed front-end would see. Results are bit-identical
 * across thread counts (threads = 1 is the reference), which
 * tests/test_parallel.cc locks with FleetStats::digest().
 *
 * Every request is tracked: the control plane keeps a pending entry
 * per request until the worker's Done reply, so shutdown drains them
 * all. Invocations pass the per-function queue-proxy semaphore
 * (maxConcurrencyPerFunction) before routing; a cold start torn down
 * by an injected WorkerCrash comes back crashed and is re-routed up
 * to maxColdStartRetries times before it counts as failed. Control
 * policies tick in domain 0: PreWarm and Prefetch actions travel as
 * tracked requests, ScaleHint as a notice that holds each worker
 * janitor's sweeps.
 *
 * Shared data plane (sharedSnapshots): a SnapshotRegistry and the
 * fleet-shared artifact store (sharedStoreShards shards, each a
 * net::ObjectStoreParams::remote() store) run in their own kernel
 * domain (index workers + 1). Workers reach the store through typed
 * request/reply CrossPorts: a per-worker StorePortClient implements
 * net::ArtifactStore by shipping each operation to the store domain
 * and waiting for the reply, so loaders and page sources work
 * unchanged. Staging is build-once: each function's home worker (same
 * ring hash as LocalityHashPolicy) runs homeStagePayload — boot,
 * record, manifests or blob size — and ships the payload in a Stage
 * message; the store domain's registry stages it (chunk-deduplicated
 * under DedupReap, sharded by net::ShardedObjectStore) and broadcasts
 * Adopt metadata — including chunk shard placements — to every
 * worker. Restage re-records on the home worker and ships the new
 * version the same way; retire GCs the registry entry from the home
 * worker. Workers count their remote-artifact cold starts per
 * function and hand the counts to the registry with their final Bye,
 * which is where fetchFanIn comes from. Workers signal Ready only
 * after adopting the whole population, so traffic never races
 * staging.
 *
 * Without sharedSnapshots every mode — including RemoteReap and
 * DedupReap — runs per-worker (each worker stages into its own store,
 * domain-confined).
 *
 * Driving a run: run() drives the configured workload — the
 * closed-loop Azure mix, or the open-loop TrafficEngine when
 * cfg.traffic is set (Zipf populations, diurnal modulation, burst
 * events; open-loop arrivals do not wait for completions, so flash
 * crowds genuinely pile onto the shared store). run(profiles, script)
 * deploys @p profiles instead and hands the control domain to a
 * script through a FleetClient: invoke, restage, retire, the
 * configured workload, the control Simulation and the mirrored idle
 * counts. Either way the control plane drains in-flight requests
 * before shutdown, and worker(i) inspects a host after the run.
 */

#ifndef VHIVE_CLUSTER_PARALLEL_FLEET_HH
#define VHIVE_CLUSTER_PARALLEL_FLEET_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/azure_workload.hh"
#include "cluster/control_policy.hh"
#include "cluster/fleet_stats.hh"
#include "cluster/routing_policy.hh"
#include "cluster/snapshot_registry.hh"
#include "cluster/traffic.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "net/sharded_store.hh"
#include "sim/fault.hh"
#include "sim/parallel.hh"
#include "sim/sync.hh"
#include "util/stats.hh"

namespace vhive::cluster {

/**
 * Configuration of a fleet run: the shared fleet fields plus the
 * runtime's own. The control policy ticks in domain 0 against the
 * mirrored fleet view, so predictions, like routing, trail worker
 * reality by one fabric hop.
 */
struct ParallelFleetConfig : FleetConfig
{
    /** Threads the kernel runs domains on (wall-clock only). */
    int simThreads = 1;

    /** Control-policy tick period (controlPolicy != None). */
    Duration controlPeriod = sec(2);

    /** The Azure mix to synthesize and drive (closed loop). */
    AzureWorkloadConfig workload{};

    /**
     * When set, arrivals come from the TrafficEngine instead of the
     * Azure mix: the engine's profiles are deployed and driven
     * open-loop (burst events overlap in flight). The workload field
     * above is then ignored.
     */
    std::optional<TrafficConfig> traffic;

    /**
     * Fault specs of the fleet. A FaultPlan is not thread-safe, so
     * each worker domain gets its own plan built from these specs,
     * seeded faultSeed + worker and installed on the worker's object
     * store as "store/worker/<w>" and on its cold-start path as
     * "worker/<w>"; under sharedSnapshots the store domain's plan
     * (seeded faultSeed + workers) covers the shared store as
     * "store/shared[/<s>]" and staging passes as "staging/<function>".
     * Deterministic per domain and safe under any simThreads. Empty
     * (default) = fault-free, bit-identical to no plan.
     */
    std::vector<sim::FaultSpec> storeFaults;

    /** Base seed of the per-domain fault plans. */
    std::uint64_t faultSeed = 0;
};

/** The fleet reports the shared fleet result. */
using ParallelFleetResult = FleetStats;

/** Per-function front-end counters of a run (control domain). Every
 * accepted invocation lands in exactly one of coldStarts, warmHits or
 * failedInvocations; retried crashed attempts count only in
 * crashRetries. */
struct FunctionFleetStats
{
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;

    /** Invocations reported failed after exhausting crash retries. */
    std::int64_t failedInvocations = 0;

    /** Crashed cold-start attempts that were re-routed and retried. */
    std::int64_t crashRetries = 0;

    /** Keep-alive sweeps that stopped an idle instance of it. */
    std::int64_t scaleDowns = 0;

    /** Time each admitted invocation waited in the queue-proxy (ms;
     * empty without maxConcurrencyPerFunction). */
    Samples queueDelayMs;
};

class ParallelFleet;

/**
 * The control-domain face of a scripted run. Every call runs in
 * domain 0: invoke() and the verbs suspend until the workers' replies
 * arrive, so a script reads like a sequential experiment while the
 * fleet simulates in parallel.
 */
class FleetClient
{
  public:
    /** The control domain's simulation (now(), delay(), spawn()). */
    sim::Simulation &sim();

    /** Route one invocation (admission, retries) and return its
     * end-to-end latency, fabric hops included. */
    sim::Task<Duration> invoke(const std::string &name);

    /**
     * The function's code was updated: every worker invalidates its
     * record; under sharedSnapshots the home worker re-records and the
     * registry delta re-stages the new version, which every worker
     * adopts before this returns. No invocation of @p name may be in
     * flight.
     */
    sim::Task<void> restage(const std::string &name);

    /**
     * Retire @p name fleet-wide (GC): every worker stops its instances
     * and releases its record, and the registry drops the function's
     * chunk references and staging entry. The deployment stays, so it
     * can be invoked again. No invocation of @p name may be in flight.
     */
    sim::Task<void> retire(const std::string &name);

    /** Drive the configured workload (Azure mix or traffic) to
     * completion; the population must be workloadProfiles(). */
    sim::Task<void> driveWorkload();

    /** Idle instances of @p name fleet-wide, as the control plane's
     * mirror sees them (one fabric hop stale). */
    std::int64_t idleInstances(const std::string &name) const;

    /** Front-end counters of @p name so far. */
    const FunctionFleetStats &stats(const std::string &name) const;

  private:
    friend class ParallelFleet;
    explicit FleetClient(ParallelFleet &fleet) : fleet(fleet) {}

    ParallelFleet &fleet;
};

/** A scripted run's body: runs in the control domain once every
 * worker is ready; the run drains and ends when it returns. */
using FleetScript = std::function<sim::Task<void>(FleetClient &)>;

/**
 * Builds the domains, wires the ports, runs the workload, aggregates.
 * One-shot: construct, run() or run(profiles, script), read the
 * result and inspect the workers.
 */
class ParallelFleet
{
  public:
    explicit ParallelFleet(ParallelFleetConfig config);
    ~ParallelFleet();

    ParallelFleet(const ParallelFleet &) = delete;
    ParallelFleet &operator=(const ParallelFleet &) = delete;

    /**
     * Run the configured workload to completion on the configured
     * thread count. Blocking host call (not a coroutine): drives the
     * parallel kernel until every domain is quiescent.
     */
    FleetStats run();

    /**
     * Deploy @p profiles on every worker, stage and record them, then
     * run @p script in the control domain; blocking like run().
     */
    FleetStats run(std::vector<func::FunctionProfile> profiles,
                   FleetScript script);

    /** The configured workload's population (Azure mix or traffic
     * engine), in deployment order. */
    std::vector<func::FunctionProfile> workloadProfiles() const;

    const sim::ParallelKernel::Stats &kernelStats() const
    {
        return kernel.stats();
    }

    const ParallelFleetConfig &config() const { return cfg; }

    /** The control-policy registry (extension point; configure before
     * run()). */
    ControlPolicyRegistry &controlPolicies() { return _controlPolicies; }

    /** Worker host @p i, for inspection after the run. */
    core::Worker &worker(int i)
    {
        return *nodes[static_cast<std::size_t>(i)]->worker;
    }

    /** Front-end counters of @p name (after or during the run). */
    const FunctionFleetStats &stats(const std::string &name) const;

    /** The store domain's registry; null unless sharedSnapshots. */
    const SnapshotRegistry *snapshotRegistry() const
    {
        return registry.get();
    }

    /** The fleet-shared store; null unless sharedSnapshots. */
    const net::ShardedObjectStore *sharedObjectStore() const
    {
        return sharedStore.get();
    }

    /** Injected-fault counters summed over every domain's plan. */
    sim::FaultStats faultStats() const;

  private:
    friend class FleetClient;

    /** What a tracked request asks of a worker: serve an invocation,
     * or (control plane, not an invocation) pre-warm an instance,
     * prefetch into the tier caches without one, or restage / retire
     * the function on it. */
    enum class Request { Invoke, PreWarm, Prefetch, Restage, Retire };

    /** Control -> worker commands. */
    struct WorkerMsg {
        enum Kind { Invoke, Shutdown, ScaleHint } kind = Invoke;
        std::int64_t reqId = 0;
        int fnIdx = 0;

        /** Invoke only: what is asked. */
        Request request = Request::Invoke;

        /** Prefetch only: shield the bytes until then (-1 = none). */
        Time pinUntil = -1;

        /** ScaleHint only: janitor sweeps to skip. */
        int hold = 0;
    };

    /** Worker -> control notices. */
    struct ControlMsg {
        enum Kind { Ready, Done, ScaledDown, Bye } kind = Ready;
        std::int64_t reqId = 0;
        int fnIdx = 0;
        bool cold = false;

        /** Done only: the cold start was torn down by a WorkerCrash. */
        bool crashed = false;

        /** Done only: the request answered. */
        Request request = Request::Invoke;

        /** Worker's idle-instance count for fnIdx after the event. */
        std::int64_t idleNow = 0;

        /**
         * Worker's chunk residency for fnIdx after the event
         * (Done replies; -1 = not reported). Feeds the control
         * plane's mirrored residency, which decides future Prefetch
         * actions — one fabric hop stale, like every mirror field.
         */
        double chunkResidency = -1;
    };

    /** Worker -> store-domain requests. */
    struct StoreMsg {
        enum Kind { Op, Stage, Restage, Retire, Bye } kind = Op;
        enum OpKind { Get, GetRange, Put, PutChunk, GetChunks } op = Get;
        std::int64_t reqId = 0;
        Bytes a = 0; ///< bytes (Get/Put/PutChunk), offset (GetRange)
        Bytes b = 0; ///< bytes (GetRange), stored bytes (GetChunks)
        std::int64_t chunks = 0;
        net::PlacementKey key{};

        /** (Re)Stage/Retire: the function; (Re)Stage: its home
         * worker's payload. */
        int fnIdx = 0;
        std::shared_ptr<const StagePayload> stage;

        /** Bye only: the worker's remote-artifact cold starts per
         * function, for the registry's fetch accounting. */
        std::shared_ptr<const std::vector<std::int64_t>> fetches;
    };

    /** Staged metadata the store domain fans out to every worker. */
    struct AdoptPayload {
        int fnIdx = 0;

        /** The staged version (record and manifests to adopt). */
        std::shared_ptr<const StagePayload> staged;

        /** Chunk shard placements (content hash -> shard). */
        std::vector<std::pair<std::uint64_t, int>> placements;
    };

    /** Store-domain -> worker replies. */
    struct StoreReply {
        enum Kind { OpDone, Adopt, Bye } kind = OpDone;
        std::int64_t reqId = 0;
        std::shared_ptr<AdoptPayload> adopt;
    };

    struct WorkerNode;

    /**
     * The worker-side face of the shared store: a net::ArtifactStore
     * whose five operations each travel as a StoreMsg over the
     * worker's toStore port and suspend until the store domain's
     * OpDone reply — so loaders and page sources use the fleet store
     * exactly like a local one, paying two fabric hops per request.
     */
    class StorePortClient final : public net::ArtifactStore
    {
      public:
        StorePortClient(ParallelFleet &fleet, int w)
            : fleet(fleet), w(w)
        {
        }

        sim::Task<void> get(Bytes bytes,
                            net::PlacementKey key = {}) override;
        sim::Task<void> getRange(Bytes offset, Bytes bytes,
                                 net::PlacementKey key = {}) override;
        sim::Task<void> put(Bytes bytes,
                            net::PlacementKey key = {}) override;
        sim::Task<void> putChunk(Bytes stored_bytes,
                                 net::PlacementKey key = {}) override;
        sim::Task<void> getChunks(std::int64_t chunks,
                                  Bytes stored_bytes,
                                  net::PlacementKey key = {}) override;

        /**
         * Mirrors the store domain's routing from the worker side:
         * adopted placements first (OverlapAware truth), content hash
         * otherwise — so ChunkPageSource groups batches per shard
         * without a round trip.
         */
        int shardOf(net::PlacementKey key) const override;
        int shardCount() const override;

      private:
        ParallelFleet &fleet;
        int w;
    };

    /** One worker domain: the host plus its message loops. */
    struct WorkerNode {
        std::unique_ptr<sim::CrossPort<WorkerMsg>> fromControl;
        std::unique_ptr<sim::CrossPort<ControlMsg>> toControl;

        /** @name Shared data plane (sharedSnapshots only). */
        /// @{
        std::unique_ptr<sim::CrossPort<StoreMsg>> toStore;
        std::unique_ptr<sim::CrossPort<StoreReply>> fromStore;
        std::unique_ptr<StorePortClient> storeClient;

        /** Gates of in-flight store requests, by request id. */
        std::unordered_map<std::int64_t, sim::Gate *> storePending;
        std::int64_t nextStoreReq = 0;

        /** Adopted chunk placements (content hash -> shard). */
        std::unordered_map<std::uint64_t, int> chunkHomes;

        /** Functions adopted; Ready fires when the population has. */
        std::int64_t adopted = 0;
        std::unique_ptr<sim::Gate> allAdopted;

        /** Cold starts that pulled bytes through the store ports, per
         * function (reset when the function retires). */
        std::vector<std::int64_t> remoteFetches;
        /// @}

        /** This worker's telemetry row (invocations served, memory
         * bill), folded into the result by run(). */
        WorkerFleetRow row;

        /** Declared after the ports/client it may reference. */
        std::unique_ptr<core::Worker> worker;

        /** This domain's fault plan (null without storeFaults). */
        std::unique_ptr<sim::FaultPlan> faults;

        /** Completion time per function (index), for keep-alive. */
        std::vector<Time> lastUsed;

        /** Janitor sweeps still held by a ScaleHint. */
        int scaleHold = 0;

        std::int64_t liveInvokes = 0;
        std::int64_t scaleDowns = 0;
        bool stopping = false;
    };

    /** Control-side record of an in-flight request. */
    struct PendingReq {
        /** Arrival time (before admission): e2e starts here. */
        Time t0 = 0;
        sim::Gate *done = nullptr;

        /** Invoke only: where the end-to-end latency goes (may be
         * null), and the crashed attempts retried so far. */
        Duration *e2e = nullptr;
        int retries = 0;
    };

    /** Mirrored worker state the routing policies consult. */
    class MirrorView final : public FleetView
    {
      public:
        explicit MirrorView(ParallelFleet &fleet) : fleet(fleet) {}
        int workerCount() const override;
        std::int64_t idleInstances(
            int worker, const std::string &name) const override;
        std::int64_t inFlight(int worker) const override;
        bool artifactsLocal(int worker,
                            const std::string &name) const override;

      private:
        ParallelFleet &fleet;
    };

    /**
     * Validate @p config before any member that spawns threads is
     * constructed: genuinely unsupported combinations are rejected
     * with a clean fatal() naming the problem, from the member-init
     * list — never after the kernel's thread pool exists.
     */
    static ParallelFleetConfig checkedConfig(ParallelFleetConfig config);

    /** Size every per-function table for @p profiles. */
    void deploy(std::vector<func::FunctionProfile> profiles);

    /** Index of deployed function @p name (fatal if unknown). */
    int fnOf(const std::string &name) const;

    /** Store domain index (only meaningful with sharedSnapshots). */
    int storeDomain() const { return cfg.workers + 1; }

    /** LocalityHashPolicy ring home of @p name. */
    int homeWorkerOf(const std::string &name) const
    {
        return LocalityHashPolicy::homeWorker(name, cfg.workers);
    }

    /** @name Worker-domain coroutines. */
    /// @{
    sim::Task<void> workerMain(int w);
    sim::Task<void> workerInvoke(int w, WorkerMsg msg);
    sim::Task<void> workerRestage(int w, int fn);
    sim::Task<void> workerRetire(int w, int fn);
    sim::Task<void> workerJanitor(int w);
    sim::Task<void> workerStorePump(int w);
    sim::Task<void> stageHomeFunctions(int w);

    /** Ship @p msg to the store domain; resumes on its OpDone. */
    sim::Task<void> storeCall(int w, StoreMsg msg);

    /** Ship store operation @p op (operands as in StoreMsg). */
    sim::Task<void> storeOp(int w, StoreMsg::OpKind op, Bytes a, Bytes b,
                            std::int64_t chunks, net::PlacementKey key);
    /// @}

    /** @name Store-domain coroutines (sharedSnapshots only). */
    /// @{
    sim::Task<void> storePump(int w);
    sim::Task<void> storeServe(int w, StoreMsg msg);
    sim::Task<void> storeStage(int w, StoreMsg msg);
    /// @}

    /** @name Control-domain coroutines. */
    /// @{
    sim::Task<void> controlMain();
    sim::Task<void> driveWorkload();
    sim::Task<void> arrivalLoop(int fn_idx, sim::Latch *done);
    sim::Task<void> trafficArrivalLoop(int fn_idx, sim::Latch *done);
    sim::Task<void> replyPump(int w, sim::Latch *ready,
                              sim::Latch *byes);

    /** One invocation through admission, routing and retries;
     * returns its end-to-end latency. */
    sim::Task<Duration> invokeFn(int fn_idx);

    /** invokeFn() for an open-loop arrival nobody waits on. */
    sim::Task<void> admitAndDispatch(int fn_idx);

    /** Send restage or retire (@p req) of @p fn_idx to every worker
     * and wait for all their replies. */
    sim::Task<void> broadcastRequest(Request req, int fn_idx);

    /** Route one invocation of @p fn_idx and claim the mirrored
     * state the route expects to use; returns the worker. */
    int routeAndClaim(int fn_idx);

    /** Route + dispatch one admitted invocation that arrived at
     * @p t0. */
    void dispatch(int fn_idx, Time t0, sim::Gate *done, Duration *e2e);

    /**
     * Send @p msg to worker @p widx as a tracked request: @p pr.done
     * (may be null) opens on its final Done reply, and the shutdown
     * drain waits for that reply, so workers never see traffic after
     * Shutdown.
     */
    void sendRequest(int widx, WorkerMsg msg, PendingReq pr);

    /** Account the final Done of invocation @p pr of @p fn_idx. */
    void completeInvocation(int fn_idx, const ControlMsg &msg,
                            const PendingReq &pr);

    /** Periodic ControlPolicy tick (controlPolicy != None). */
    sim::Task<void> controlTickLoop();
    /// @}

    ParallelFleetConfig cfg;
    sim::ParallelKernel kernel;

    /** @name The deployed population (read-only once running). */
    /// @{
    std::vector<func::FunctionProfile> profiles;
    std::unordered_map<std::string, int> fnIndex;
    std::vector<std::string> fnNames; ///< in deployment order

    /** Azure mix mean inter-arrivals (run() without traffic only). */
    std::vector<Duration> interarrival;
    /// @}

    std::vector<std::unique_ptr<WorkerNode>> nodes;
    std::unique_ptr<TrafficEngine> trafficEng;
    FleetScript script;

    /** @name Store-domain state (domain workers+1 only). */
    /// @{
    std::unique_ptr<net::ShardedObjectStore> sharedStore;
    std::unique_ptr<sim::FaultPlan> sharedFaults;

    /** Stages the payloads home workers ship. */
    std::unique_ptr<SnapshotRegistry> registry;
    /// @}

    /** @name Control-domain state (domain 0 only). */
    /// @{
    RoutingPolicyRegistry policies;
    RoutingPolicy *activePolicy = nullptr;
    ControlPolicyRegistry _controlPolicies;

    /** Active control policy; null when kind is None. */
    ControlPolicy *activeControl = nullptr;

    /** Per-function queue-proxy slots; empty when unlimited. */
    std::vector<std::unique_ptr<sim::Semaphore>> admission;

    /** Per-function front-end counters. */
    std::vector<FunctionFleetStats> fnStats;

    /** Per-function pre-warm already issued and not yet Done. */
    std::vector<char> preWarmInFlight;

    /** Per-function prefetch already issued and not yet Done. */
    std::vector<char> prefetchInFlight;

    /**
     * Mirrored chunk residency [w][fn], updated from Done replies:
     * what the control plane believes each worker holds, one fabric
     * hop stale. Source of ControlFunctionView::homeChunkResidency.
     */
    std::vector<std::vector<double>> mirrorResidency;

    /** Set after the script returns; stops the control tick loop. */
    bool controlStopping = false;
    MirrorView view{*this};
    std::vector<std::vector<std::int64_t>> mirrorIdle; // [w][fn]
    std::vector<std::int64_t> mirrorInFlight;          // [w]
    std::unordered_map<std::int64_t, PendingReq> pending;
    std::int64_t nextReqId = 0;

    /** Open-loop drain: opened by replyPump when pending empties. */
    std::unique_ptr<sim::Gate> drainGate;
    FleetStats result;
    /// @}
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_PARALLEL_FLEET_HH

#include "cluster/parallel_fleet.hh"

#include <algorithm>

#include "net/rpc.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace vhive::cluster {

namespace {

/**
 * Control-plane <-> worker fabric latency: the per-direction hop every
 * request pays, and the kernel's lookahead window.
 */
constexpr Duration kFabricHop = net::RpcParams{}.clusterHop;

/**
 * The ColdStartMode pre-warm actions load through: Sec. 6.3
 * background working-set warming for the tiered/remote family (yield
 * store streams to foreground colds), the configured mode itself
 * otherwise (plain Reap must not gain tiered staging).
 */
core::ColdStartMode
preWarmMode(core::ColdStartMode mode)
{
    switch (mode) {
      case core::ColdStartMode::TieredReap:
      case core::ColdStartMode::RemoteReap:
      case core::ColdStartMode::DedupReap:
      case core::ColdStartMode::BackgroundWarm:
        return core::ColdStartMode::BackgroundWarm;
      default:
        return mode;
    }
}

/**
 * Whether the invocation @p bd describes was a cold start that pulled
 * staged artifact bytes through the fleet-shared store (never without
 * sharedSnapshots). RemoteReap GETs the artifacts on every cold start;
 * tiered chains report exactly which tier served the WS bytes, and
 * that report wins over @p artifacts_were_local (the pre-invoke view,
 * which a concurrent cold start may have changed).
 */
bool
fetchedRemotely(const FleetConfig &cfg, const core::LatencyBreakdown &bd,
                bool artifacts_were_local)
{
    if (!cfg.sharedSnapshots || !bd.cold)
        return false;
    bool fetched = cfg.coldStartMode == core::ColdStartMode::RemoteReap ||
                   !artifacts_were_local;
    for (const auto &t : bd.tierHits) {
        if (t.tier == "remote")
            fetched = t.bytes > 0;
    }
    return fetched;
}

/**
 * The off-window record pass of one worker without shared staging:
 * one forced record-phase cold start of every function in
 * @p functions (host caches flushed before each), so the measured
 * window starts with every working set recorded — deployed
 * production functions recorded long ago. Skipped when the configured
 * mode records nothing.
 */
sim::Task<void>
preRecordWorkingSets(const FleetConfig &cfg, core::Orchestrator &orch,
                     const std::vector<std::string> &functions)
{
    if (!orch.loaders().loaderFor(cfg.coldStartMode).needsRecord())
        co_return;
    for (const std::string &name : functions) {
        orch.flushHostCaches();
        core::InvokeOptions opts;
        opts.forceCold = true;
        (void)co_await orch.invoke(name, cfg.coldStartMode, opts);
    }
}

} // namespace

ParallelFleetConfig
ParallelFleet::checkedConfig(ParallelFleetConfig config)
{
    // Runs in the member-init list, before the kernel's thread pool
    // is constructed: an unsupported configuration exits cleanly
    // instead of tearing down live simulation threads.
    if (config.workers < 1)
        fatal("ParallelFleet: workers must be >= 1 (got %d)",
              config.workers);
    for (auto [field, n] :
         {std::pair{"maxConcurrencyPerFunction",
                    config.maxConcurrencyPerFunction},
          std::pair{"maxColdStartRetries", config.maxColdStartRetries}}) {
        if (n < 0)
            fatal("ParallelFleet: %s must be >= 0 (got %d)", field, n);
    }
    if (config.sharedStoreShards < 1)
        fatal("ParallelFleet: sharedStoreShards must be >= 1 (got %d)",
              config.sharedStoreShards);
    for (auto [field, d] : {std::pair{"keepAlive", config.keepAlive},
                            std::pair{"scalePeriod", config.scalePeriod}}) {
        if (d <= 0)
            fatal("ParallelFleet: %s must be > 0 (got %lld ns)", field,
                  static_cast<long long>(d));
    }
    const core::ReapOptions &reap = config.worker.reap;
    for (auto [field, bytes] :
         {std::pair{"registryChunkBudget", config.registryChunkBudget},
          std::pair{"worker.reap.pageCacheBudget", reap.pageCacheBudget},
          std::pair{"worker.reap.chunkCacheBudget", reap.chunkCacheBudget},
          std::pair{"worker.reap.ssdBudget", reap.ssdBudget}}) {
        if (bytes < 0)
            fatal("ParallelFleet: %s must be >= 0 (got %lld)", field,
                  static_cast<long long>(bytes));
    }
    if (config.sharedSnapshots &&
        config.coldStartMode != core::ColdStartMode::TieredReap &&
        config.coldStartMode != core::ColdStartMode::RemoteReap &&
        config.coldStartMode != core::ColdStartMode::DedupReap) {
        fatal("ParallelFleet: sharedSnapshots needs a remote-capable "
              "cold-start mode (TieredReap, RemoteReap or DedupReap); "
              "%s keeps all artifacts local and has nothing to stage",
              core::coldStartModeName(config.coldStartMode));
    }
    return config;
}

ParallelFleet::ParallelFleet(ParallelFleetConfig config)
    : cfg(checkedConfig(std::move(config))),
      kernel(cfg.workers + 1 + (cfg.sharedSnapshots ? 1 : 0),
             cfg.simThreads)
{
    // Traffic-driven runs deploy the engine's Zipf population, driven
    // open-loop (meanInterarrival unused on this path).
    if (cfg.traffic)
        trafficEng = std::make_unique<TrafficEngine>(*cfg.traffic);
    activePolicy = &policies.policyFor(cfg.routingPolicy);

    if (cfg.sharedSnapshots) {
        net::ShardedStoreParams sp;
        sp.shards = cfg.sharedStoreShards;
        sp.shard = net::ObjectStoreParams::remote();
        sp.placement = cfg.chunkPlacement;
        sharedStore = std::make_unique<net::ShardedObjectStore>(
            kernel.sim(storeDomain()), sp);
        registry = std::make_unique<SnapshotRegistry>(
            kernel.sim(storeDomain()), *sharedStore, cfg);
        if (!cfg.storeFaults.empty()) {
            // The store domain draws its own deterministic fault
            // stream (FaultPlan is not thread-safe across domains),
            // for the shared store and the registry's staging passes.
            sharedFaults = std::make_unique<sim::FaultPlan>(
                cfg.faultSeed +
                static_cast<std::uint64_t>(cfg.workers));
            for (const sim::FaultSpec &spec : cfg.storeFaults)
                sharedFaults->add(spec);
            sharedStore->setFaultPlan(sharedFaults.get(),
                                      "store/shared");
            registry->setFaultPlan(sharedFaults.get());
        }
    }

    nodes.reserve(static_cast<std::size_t>(cfg.workers));
    for (int w = 0; w < cfg.workers; ++w) {
        auto node = std::make_unique<WorkerNode>();
        node->fromControl =
            std::make_unique<sim::CrossPort<WorkerMsg>>(
                kernel, kernel.domain(0), kernel.domain(1 + w),
                kFabricHop);
        node->toControl =
            std::make_unique<sim::CrossPort<ControlMsg>>(
                kernel, kernel.domain(1 + w), kernel.domain(0),
                kFabricHop);
        if (cfg.sharedSnapshots) {
            // Store ports + client must exist before the Worker: the
            // worker's loaders capture the client as their artifact
            // store.
            node->toStore =
                std::make_unique<sim::CrossPort<StoreMsg>>(
                    kernel, kernel.domain(1 + w),
                    kernel.domain(storeDomain()), kFabricHop);
            node->fromStore =
                std::make_unique<sim::CrossPort<StoreReply>>(
                    kernel, kernel.domain(storeDomain()),
                    kernel.domain(1 + w), kFabricHop);
            node->storeClient =
                std::make_unique<StorePortClient>(*this, w);
            node->allAdopted =
                std::make_unique<sim::Gate>(kernel.sim(1 + w));
        }
        // Seeded worker.seed + w: distinct page layouts do not matter,
        // but determinism across runs does.
        core::WorkerConfig wc = cfg.worker;
        wc.seed = cfg.worker.seed + static_cast<std::uint64_t>(w);
        node->worker = std::make_unique<core::Worker>(
            kernel.sim(1 + w), wc, node->storeClient.get());
        if (!cfg.storeFaults.empty()) {
            // One plan per domain (FaultPlan is not thread-safe),
            // seeded per worker so domains draw independent but
            // deterministic fault streams for any simThreads.
            node->faults = std::make_unique<sim::FaultPlan>(
                cfg.faultSeed + static_cast<std::uint64_t>(w));
            for (const sim::FaultSpec &spec : cfg.storeFaults)
                node->faults->add(spec);
            std::string idx = std::to_string(w);
            node->worker->objectStore().setFaultPlan(
                node->faults.get(), "store/worker/" + idx);
            node->worker->orchestrator().setFaultPlan(node->faults.get(),
                                                      "worker/" + idx);
        }
        nodes.push_back(std::move(node));
    }
}

void
ParallelFleet::deploy(std::vector<func::FunctionProfile> population)
{
    profiles = std::move(population);
    const std::size_t n = profiles.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (!fnIndex.emplace(profiles[i].name, static_cast<int>(i))
                 .second)
            fatal("function %s deployed twice", profiles[i].name.c_str());
        fnNames.push_back(profiles[i].name);
    }

    mirrorIdle.assign(static_cast<std::size_t>(cfg.workers),
                      std::vector<std::int64_t>(n, 0));
    mirrorInFlight.assign(static_cast<std::size_t>(cfg.workers), 0);
    preWarmInFlight.assign(n, 0);
    prefetchInFlight.assign(n, 0);
    fnStats.assign(n, FunctionFleetStats{});
    // Mirrored chunk residency, one hop stale (refreshed by Done
    // replies). Non-shared fleets keep every artifact local, so full
    // residency everywhere; shared fleets start with residency only
    // on each function's home worker (where it records) and learn the
    // rest from replies.
    mirrorResidency.assign(
        static_cast<std::size_t>(cfg.workers),
        std::vector<double>(n, cfg.sharedSnapshots ? 0.0 : 1.0));
    if (cfg.sharedSnapshots)
        for (std::size_t i = 0; i < n; ++i)
            mirrorResidency[static_cast<std::size_t>(
                homeWorkerOf(fnNames[i]))][i] = 1.0;
    if (cfg.maxConcurrencyPerFunction > 0)
        for (std::size_t i = 0; i < n; ++i)
            admission.push_back(std::make_unique<sim::Semaphore>(
                kernel.sim(0), cfg.maxConcurrencyPerFunction));
    // Resolved here, not at construction: controlPolicies() may have
    // swapped the registered policy in between.
    if (cfg.controlPolicy != ControlPolicyKind::None)
        activeControl = &_controlPolicies.policyFor(cfg.controlPolicy);
    for (auto &node : nodes) {
        node->lastUsed.assign(n, 0);
        node->remoteFetches.assign(n, 0);
    }
}

int
ParallelFleet::fnOf(const std::string &name) const
{
    auto it = fnIndex.find(name);
    if (it == fnIndex.end())
        fatal("function %s is not deployed", name.c_str());
    return it->second;
}

std::vector<func::FunctionProfile>
ParallelFleet::workloadProfiles() const
{
    std::vector<func::FunctionProfile> out;
    if (trafficEng) {
        for (int i = 0; i < trafficEng->functionCount(); ++i)
            out.push_back(trafficEng->profile(i));
        return out;
    }
    for (AzureMixEntry &entry : synthesizeAzureMix(cfg.workload))
        out.push_back(std::move(entry.profile));
    return out;
}

const FunctionFleetStats &
ParallelFleet::stats(const std::string &name) const
{
    return fnStats[static_cast<std::size_t>(fnOf(name))];
}

sim::FaultStats
ParallelFleet::faultStats() const
{
    sim::FaultStats sum;
    auto add = [&sum](const sim::FaultPlan *plan) {
        if (plan == nullptr)
            return;
        const sim::FaultStats &s = plan->stats();
        sum.outageStalls += s.outageStalls;
        sum.outageStallTime += s.outageStallTime;
        sum.stormHits += s.stormHits;
        sum.stragglers += s.stragglers;
        sum.requestErrors += s.requestErrors;
        sum.stagingStalls += s.stagingStalls;
        sum.workerCrashes += s.workerCrashes;
    };
    for (const auto &node : nodes)
        add(node->faults.get());
    add(sharedFaults.get());
    return sum;
}

// ------------------------------------------------------ fleet client

sim::Simulation &
FleetClient::sim()
{
    return fleet.kernel.sim(0);
}

sim::Task<Duration>
FleetClient::invoke(const std::string &name)
{
    return fleet.invokeFn(fleet.fnOf(name));
}

sim::Task<void>
FleetClient::restage(const std::string &name)
{
    return fleet.broadcastRequest(ParallelFleet::Request::Restage,
                                  fleet.fnOf(name));
}

sim::Task<void>
FleetClient::retire(const std::string &name)
{
    return fleet.broadcastRequest(ParallelFleet::Request::Retire,
                                  fleet.fnOf(name));
}

sim::Task<void>
FleetClient::driveWorkload()
{
    return fleet.driveWorkload();
}

std::int64_t
FleetClient::idleInstances(const std::string &name) const
{
    auto fn = static_cast<std::size_t>(fleet.fnOf(name));
    std::int64_t idle = 0;
    for (const auto &row : fleet.mirrorIdle)
        idle += row[fn];
    return idle;
}

const FunctionFleetStats &
FleetClient::stats(const std::string &name) const
{
    return fleet.stats(name);
}

ParallelFleet::~ParallelFleet() = default;

// ------------------------------------------------------- mirror view

int
ParallelFleet::MirrorView::workerCount() const
{
    return fleet.cfg.workers;
}

std::int64_t
ParallelFleet::MirrorView::idleInstances(int worker,
                                         const std::string &name) const
{
    auto it = fleet.fnIndex.find(name);
    if (it == fleet.fnIndex.end())
        return 0;
    return fleet.mirrorIdle[static_cast<std::size_t>(worker)]
                           [static_cast<std::size_t>(it->second)];
}

std::int64_t
ParallelFleet::MirrorView::inFlight(int worker) const
{
    return fleet.mirrorInFlight[static_cast<std::size_t>(worker)];
}

bool
ParallelFleet::MirrorView::artifactsLocal(
    int worker, const std::string &name) const
{
    // Without the shared registry snapshots are prepared on every
    // worker, so artifacts are always local. With it, only the home
    // worker built locally; everyone else pulls through the store on
    // first cold start — the one-hop-stale approximation a mirrored
    // front-end would hold (it cannot see later re-localization).
    return !fleet.cfg.sharedSnapshots ||
           worker == fleet.homeWorkerOf(name);
}

// ----------------------------------------------- store port client

sim::Task<void>
ParallelFleet::StorePortClient::get(Bytes bytes, net::PlacementKey key)
{
    co_await fleet.storeOp(w, StoreMsg::Get, bytes, 0, 0, key);
}

sim::Task<void>
ParallelFleet::StorePortClient::getRange(Bytes offset, Bytes bytes,
                                         net::PlacementKey key)
{
    co_await fleet.storeOp(w, StoreMsg::GetRange, offset, bytes, 0, key);
}

sim::Task<void>
ParallelFleet::StorePortClient::put(Bytes bytes, net::PlacementKey key)
{
    co_await fleet.storeOp(w, StoreMsg::Put, bytes, 0, 0, key);
}

sim::Task<void>
ParallelFleet::StorePortClient::putChunk(Bytes stored_bytes,
                                         net::PlacementKey key)
{
    co_await fleet.storeOp(w, StoreMsg::PutChunk, stored_bytes, 0, 0, key);
}

sim::Task<void>
ParallelFleet::StorePortClient::getChunks(std::int64_t chunks,
                                          Bytes stored_bytes,
                                          net::PlacementKey key)
{
    co_await fleet.storeOp(w, StoreMsg::GetChunks, 0, stored_bytes, chunks,
                           key);
}

int
ParallelFleet::StorePortClient::shardOf(net::PlacementKey key) const
{
    const WorkerNode &node =
        *fleet.nodes[static_cast<std::size_t>(w)];
    auto it = node.chunkHomes.find(key.content);
    if (it != node.chunkHomes.end())
        return it->second;
    return net::hashShardOf(key.content, fleet.cfg.sharedStoreShards);
}

int
ParallelFleet::StorePortClient::shardCount() const
{
    return fleet.cfg.sharedStoreShards;
}

sim::Task<void>
ParallelFleet::storeCall(int w, StoreMsg msg)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    msg.reqId = node.nextStoreReq++;
    sim::Gate gate(kernel.sim(1 + w));
    node.storePending.emplace(msg.reqId, &gate);
    node.toStore->send(msg);
    co_await gate.wait();
    node.storePending.erase(msg.reqId);
}

sim::Task<void>
ParallelFleet::storeOp(int w, StoreMsg::OpKind op, Bytes a, Bytes b,
                       std::int64_t chunks, net::PlacementKey key)
{
    StoreMsg msg;
    msg.op = op;
    msg.a = a;
    msg.b = b;
    msg.chunks = chunks;
    msg.key = key;
    co_await storeCall(w, std::move(msg));
}

// ---------------------------------------------------- store domain

sim::Task<void>
ParallelFleet::storePump(int w)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    sim::Simulation &ssim = kernel.sim(storeDomain());

    while (true) {
        StoreMsg msg = co_await node.toStore->recv();
        switch (msg.kind) {
          case StoreMsg::Op:
            // Served on its own task so one worker's in-flight store
            // requests overlap (reqIds disambiguate the replies).
            ssim.spawn(storeServe(w, msg));
            break;
          case StoreMsg::Stage:
          case StoreMsg::Restage:
            ssim.spawn(storeStage(w, msg));
            break;
          case StoreMsg::Retire: {
            registry->retire(fnNames[static_cast<std::size_t>(msg.fnIdx)]);
            StoreReply r;
            r.reqId = msg.reqId;
            node.fromStore->send(r);
            break;
          }
          case StoreMsg::Bye: {
            // The worker's remote-artifact cold starts, folded into
            // the registry's per-artifact fetch accounting.
            const std::vector<std::int64_t> &fetches = *msg.fetches;
            for (std::size_t fn = 0; fn < fetches.size(); ++fn)
                if (fetches[fn] > 0)
                    registry->noteRemoteFetches(fnNames[fn], w,
                                                fetches[fn]);
            StoreReply r;
            r.kind = StoreReply::Bye;
            node.fromStore->send(r);
            co_return;
          }
        }
    }
}

sim::Task<void>
ParallelFleet::storeServe(int w, StoreMsg msg)
{
    switch (msg.op) {
      case StoreMsg::Get:
        co_await sharedStore->get(msg.a, msg.key);
        break;
      case StoreMsg::GetRange:
        co_await sharedStore->getRange(msg.a, msg.b, msg.key);
        break;
      case StoreMsg::Put:
        co_await sharedStore->put(msg.a, msg.key);
        break;
      case StoreMsg::PutChunk:
        co_await sharedStore->putChunk(msg.a, msg.key);
        break;
      case StoreMsg::GetChunks:
        co_await sharedStore->getChunks(msg.chunks, msg.b, msg.key);
        break;
    }
    StoreReply r;
    r.kind = StoreReply::OpDone;
    r.reqId = msg.reqId;
    nodes[static_cast<std::size_t>(w)]->fromStore->send(r);
}

sim::Task<void>
ParallelFleet::storeStage(int w, StoreMsg msg)
{
    // Every chunk's placement rides the Adopt broadcast so workers
    // group future batches by the true owning shard.
    auto adopt = std::make_shared<AdoptPayload>();
    adopt->fnIdx = msg.fnIdx;
    adopt->staged = msg.stage;
    const std::string &name = fnNames[static_cast<std::size_t>(msg.fnIdx)];
    if (msg.kind == StoreMsg::Restage)
        co_await registry->restage(name, *msg.stage, &adopt->placements);
    else
        co_await registry->stage(name, *msg.stage, &adopt->placements);

    StoreReply r;
    r.kind = StoreReply::Adopt;
    r.adopt = adopt;
    for (auto &node : nodes)
        node->fromStore->send(r);
    if (msg.kind == StoreMsg::Restage) {
        // After the Adopt on the same port: the home worker resumes
        // with the new version adopted.
        StoreReply done;
        done.reqId = msg.reqId;
        nodes[static_cast<std::size_t>(w)]->fromStore->send(done);
    }
}

// --------------------------------------------------- worker domain

sim::Task<void>
ParallelFleet::stageHomeFunctions(int w)
{
    // Build-once staging: this worker prepares, records and ships
    // only the functions whose LocalityHash ring home it is; every
    // other function arrives as Adopt metadata from the store domain.
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];

    for (std::size_t i = 0; i < fnNames.size(); ++i) {
        const std::string &name = fnNames[i];
        if (homeWorkerOf(name) != w)
            continue;
        StagePayload p = co_await homeStagePayload(*node.worker, name,
                                                   cfg.coldStartMode);
        StoreMsg m;
        m.kind = StoreMsg::Stage;
        m.fnIdx = static_cast<int>(i);
        m.stage = std::make_shared<const StagePayload>(std::move(p));
        node.toStore->send(m);
    }
}

sim::Task<void>
ParallelFleet::workerStorePump(int w)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    auto &orch = node.worker->orchestrator();

    while (true) {
        StoreReply r = co_await node.fromStore->recv();
        switch (r.kind) {
          case StoreReply::OpDone: {
            auto it = node.storePending.find(r.reqId);
            VHIVE_ASSERT(it != node.storePending.end());
            it->second->openGate();
            break;
          }
          case StoreReply::Adopt: {
            // Placements first: any cold start racing the adoption
            // must already group its batches by the true shard.
            for (const auto &[hash, shard] : r.adopt->placements)
                node.chunkHomes.emplace(hash, shard);
            orch.adoptStagedArtifacts(
                fnNames[static_cast<std::size_t>(r.adopt->fnIdx)],
                r.adopt->staged->record, r.adopt->staged->manifests);
            // Restaged versions arrive after the population did.
            if (++node.adopted ==
                static_cast<std::int64_t>(fnNames.size()))
                node.allAdopted->openGate();
            break;
          }
          case StoreReply::Bye:
            co_return;
        }
    }
}

sim::Task<void>
ParallelFleet::workerMain(int w)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    auto &orch = node.worker->orchestrator();
    sim::Simulation &wsim = kernel.sim(1 + w);

    for (const auto &profile : profiles)
        orch.registerFunction(profile);

    if (cfg.sharedSnapshots) {
        wsim.spawn(workerStorePump(w));
        co_await stageHomeFunctions(w);
        // Staging already recorded each function once on its home
        // worker (the pre-record pass is redundant here); Ready waits
        // for the whole population so traffic never races adoption.
        co_await node.allAdopted->wait();
    } else {
        for (const std::string &name : fnNames)
            co_await orch.prepareSnapshot(name);
        co_await preRecordWorkingSets(cfg, orch, fnNames);
    }

    node.toControl->send(ControlMsg{ControlMsg::Ready});
    wsim.spawn(workerJanitor(w));

    while (true) {
        WorkerMsg msg = co_await node.fromControl->recv();
        if (msg.kind == WorkerMsg::Shutdown)
            break;
        if (msg.kind == WorkerMsg::ScaleHint) {
            node.scaleHold = std::max(node.scaleHold, msg.hold);
            continue;
        }
        ++node.liveInvokes;
        wsim.spawn(workerInvoke(w, msg));
    }

    // The control plane only shuts down once every reply gate has
    // resolved, so the worker is necessarily drained here.
    VHIVE_ASSERT(node.liveInvokes == 0);
    node.stopping = true;
    if (cfg.sharedSnapshots) {
        StoreMsg bye;
        bye.kind = StoreMsg::Bye;
        bye.fetches = std::make_shared<const std::vector<std::int64_t>>(
            std::move(node.remoteFetches));
        node.toStore->send(bye);
    }
    node.toControl->send(ControlMsg{ControlMsg::Bye});
}

sim::Task<void>
ParallelFleet::workerInvoke(int w, WorkerMsg msg)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    auto &orch = node.worker->orchestrator();
    auto fn = static_cast<std::size_t>(msg.fnIdx);
    const std::string &name = fnNames[fn];

    ControlMsg reply;
    reply.kind = ControlMsg::Done;
    reply.reqId = msg.reqId;
    reply.fnIdx = msg.fnIdx;
    reply.request = msg.request;

    switch (msg.request) {
      case Request::Prefetch:
        // Control-plane chunk prefetch: warm this worker's tier
        // caches ahead of the predicted window, shielding the bytes
        // from budget eviction until msg.pinUntil (the prefetch-
        // pinned policy's contract). No instance comes up and
        // keep-alive is untouched — only cache state moves.
        co_await orch.backgroundPrefetch(name, msg.pinUntil);
        break;
      case Request::PreWarm: {
        // Control-plane pre-warm: load an instance ahead of the
        // predicted arrival, don't serve anything. Refresh keep-alive
        // only when an instance actually came up — a no-op or crashed
        // pre-warm must not extend a dead function's residency.
        auto pbd =
            co_await orch.preWarm(name, preWarmMode(cfg.coldStartMode));
        if (pbd.total > 0 && !pbd.crashed)
            node.lastUsed[fn] = kernel.sim(1 + w).now();
        break;
      }
      case Request::Restage:
        co_await workerRestage(w, msg.fnIdx);
        break;
      case Request::Retire:
        co_await workerRetire(w, msg.fnIdx);
        break;
      case Request::Invoke: {
        core::InvokeOptions opts;
        opts.keepWarm = true;
        bool was_local = orch.artifactsLocal(name);
        node.row.inFlightPeak =
            std::max(node.row.inFlightPeak, ++node.row.inFlight);
        auto bd = co_await orch.invoke(name, cfg.coldStartMode, opts);
        --node.row.inFlight;
        // A crashed attempt served nothing: the control plane retries
        // or fails it.
        if (!bd.crashed) {
            node.row.noteServed(bd);
            if (fetchedRemotely(cfg, bd, was_local))
                ++node.remoteFetches[fn];
        }
        node.lastUsed[fn] = kernel.sim(1 + w).now();
        reply.cold = bd.cold;
        reply.crashed = bd.crashed;
        break;
      }
    }
    --node.liveInvokes;
    reply.idleNow = orch.idleInstanceCount(name);
    reply.chunkResidency = orch.chunkResidency(name);
    node.toControl->send(reply);
}

sim::Task<void>
ParallelFleet::workerRestage(int w, int fn)
{
    // No worker may keep serving the stale version: each invalidates,
    // so its next invocation of the function re-records unless the
    // restaged version is adopted first.
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    const std::string &name = fnNames[static_cast<std::size_t>(fn)];
    node.worker->orchestrator().invalidateRecord(name);
    if (!cfg.sharedSnapshots || homeWorkerOf(name) != w)
        co_return;
    // The home worker re-records (same path as the first staging) and
    // ships the new version; the registry uploads only the churned
    // chunks and every worker adopts the result.
    StoreMsg m;
    m.kind = StoreMsg::Restage;
    m.fnIdx = fn;
    m.stage = std::make_shared<const StagePayload>(co_await homeStagePayload(
        *node.worker, name, cfg.coldStartMode));
    co_await storeCall(w, std::move(m));
}

sim::Task<void>
ParallelFleet::workerRetire(int w, int fn)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    auto &orch = node.worker->orchestrator();
    auto idx = static_cast<std::size_t>(fn);
    const std::string &name = fnNames[idx];
    co_await orch.stopAllInstances(name);
    orch.retireRecord(name);
    // Keep-alive freshness resets: a later revival starts cold.
    node.lastUsed[idx] = 0;
    if (!cfg.sharedSnapshots)
        co_return;
    // The retired version's fetches go with its registry entry.
    node.remoteFetches[idx] = 0;
    if (homeWorkerOf(name) != w)
        co_return;
    StoreMsg m;
    m.kind = StoreMsg::Retire;
    m.fnIdx = fn;
    co_await storeCall(w, std::move(m));
}

sim::Task<void>
ParallelFleet::workerJanitor(int w)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    auto &orch = node.worker->orchestrator();
    sim::Simulation &wsim = kernel.sim(1 + w);

    while (!node.stopping) {
        co_await wsim.delay(cfg.scalePeriod);
        if (node.stopping)
            break;
        node.row.noteJanitorTick(orch, cfg.scalePeriod);
        if (node.scaleHold > 0) {
            // A positive ScaleHint parks the sweep: cold p99 is over
            // target, shrinking the warm pool now would make it worse.
            --node.scaleHold;
            continue;
        }
        for (std::size_t fn = 0; fn < fnNames.size(); ++fn) {
            const std::string &name = fnNames[fn];
            if (orch.idleInstanceCount(name) == 0)
                continue;
            if (wsim.now() - node.lastUsed[fn] < cfg.keepAlive)
                continue;
            std::int64_t stopped =
                co_await orch.stopIdleInstances(name);
            if (stopped > 0) {
                ++node.scaleDowns;
                ControlMsg msg;
                msg.kind = ControlMsg::ScaledDown;
                msg.fnIdx = static_cast<int>(fn);
                msg.idleNow = orch.idleInstanceCount(name);
                node.toControl->send(msg);
            }
        }
    }
}

// --------------------------------------------------- control domain

sim::Task<void>
ParallelFleet::replyPump(int w, sim::Latch *ready, sim::Latch *byes)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    auto widx = static_cast<std::size_t>(w);

    while (true) {
        ControlMsg msg = co_await node.toControl->recv();
        auto fn = static_cast<std::size_t>(msg.fnIdx);
        switch (msg.kind) {
          case ControlMsg::Ready:
            ready->arrive();
            break;
          case ControlMsg::Done: {
            auto it = pending.find(msg.reqId);
            VHIVE_ASSERT(it != pending.end());
            PendingReq &pr = it->second;
            mirrorIdle[widx][fn] = msg.idleNow;
            if (msg.chunkResidency >= 0)
                mirrorResidency[widx][fn] = msg.chunkResidency;
            if (msg.request == Request::Prefetch) {
                // A prefetch only moved cache bytes: free the
                // in-flight guard and count it; no invocation, no
                // instance accounting.
                prefetchInFlight[fn] = 0;
                ++result.bgPrefetches;
            } else if (msg.request == Request::PreWarm) {
                // A pre-warm is not an invocation: it refreshes the
                // mirror and frees the in-flight guard, nothing else.
                preWarmInFlight[fn] = 0;
                ++result.preWarms;
            } else if (msg.request == Request::Invoke) {
                --mirrorInFlight[widx];
                if (msg.crashed &&
                    pr.retries < cfg.maxColdStartRetries) {
                    // The crashed worker's instance is gone: re-route
                    // (load-aware policies see the failure) under the
                    // same request, which stays pending.
                    ++pr.retries;
                    ++fnStats[fn].crashRetries;
                    WorkerMsg retry;
                    retry.reqId = msg.reqId;
                    retry.fnIdx = msg.fnIdx;
                    nodes[static_cast<std::size_t>(routeAndClaim(
                              msg.fnIdx))]
                        ->fromControl->send(retry);
                    break;
                }
                completeInvocation(msg.fnIdx, msg, pr);
            }
            if (pr.done != nullptr)
                pr.done->openGate();
            pending.erase(it);
            if (drainGate && pending.empty())
                drainGate->openGate();
            break;
          }
          case ControlMsg::ScaledDown:
            mirrorIdle[widx][fn] = msg.idleNow;
            ++fnStats[fn].scaleDowns;
            break;
          case ControlMsg::Bye:
            byes->arrive();
            co_return;
        }
    }
}

void
ParallelFleet::completeInvocation(int fn_idx, const ControlMsg &msg,
                                  const PendingReq &pr)
{
    Duration e2e = kernel.sim(0).now() - pr.t0;
    result.noteInvocation(toMs(e2e), msg.cold, msg.crashed);
    FunctionFleetStats &st = fnStats[static_cast<std::size_t>(fn_idx)];
    if (msg.crashed)
        ++st.failedInvocations; // retries exhausted: failed once
    else if (msg.cold)
        ++st.coldStarts;
    else
        ++st.warmHits;
    if (pr.e2e != nullptr)
        *pr.e2e = e2e;
    if (!admission.empty())
        admission[static_cast<std::size_t>(fn_idx)]->release();
}

int
ParallelFleet::routeAndClaim(int fn_idx)
{
    int widx = activePolicy->route(
        RouteContext{fnNames[static_cast<std::size_t>(fn_idx)], view});
    VHIVE_ASSERT(widx >= 0 && widx < cfg.workers);

    // Optimistically claim the warm instance the route expects to
    // hit; the worker's Done reply re-syncs the true count.
    auto &idle = mirrorIdle[static_cast<std::size_t>(widx)]
                           [static_cast<std::size_t>(fn_idx)];
    if (idle > 0)
        --idle;
    ++mirrorInFlight[static_cast<std::size_t>(widx)];
    return widx;
}

void
ParallelFleet::dispatch(int fn_idx, Time t0, sim::Gate *done,
                        Duration *e2e)
{
    int widx = routeAndClaim(fn_idx);

    // Arrival history feeds prediction; pre-warms and retries never
    // land here, so the policy only ever learns from real arrivals.
    if (activeControl)
        activeControl->noteArrival(
            fnNames[static_cast<std::size_t>(fn_idx)],
            kernel.sim(0).now());

    WorkerMsg msg;
    msg.fnIdx = fn_idx;
    sendRequest(widx, msg, PendingReq{t0, done, e2e});
}

void
ParallelFleet::sendRequest(int widx, WorkerMsg msg, PendingReq pr)
{
    msg.reqId = nextReqId++;
    pending.emplace(msg.reqId, pr);
    nodes[static_cast<std::size_t>(widx)]->fromControl->send(msg);
}

sim::Task<Duration>
ParallelFleet::invokeFn(int fn_idx)
{
    sim::Simulation &csim = kernel.sim(0);
    Time t0 = csim.now();
    if (!admission.empty()) {
        // Knative queue-proxy: at most maxConcurrencyPerFunction
        // in flight per function, excess arrivals queue FIFO; the
        // slot returns with the invocation's final Done.
        co_await admission[static_cast<std::size_t>(fn_idx)]->acquire();
        fnStats[static_cast<std::size_t>(fn_idx)].queueDelayMs.add(
            toMs(csim.now() - t0));
    }
    sim::Gate gate(csim);
    Duration e2e = 0;
    dispatch(fn_idx, t0, &gate, &e2e);
    co_await gate.wait();
    co_return e2e;
}

sim::Task<void>
ParallelFleet::admitAndDispatch(int fn_idx)
{
    (void)co_await invokeFn(fn_idx);
}

sim::Task<void>
ParallelFleet::broadcastRequest(Request req, int fn_idx)
{
    sim::Simulation &csim = kernel.sim(0);
    std::vector<std::unique_ptr<sim::Gate>> replies;
    for (int w = 0; w < cfg.workers; ++w) {
        replies.push_back(std::make_unique<sim::Gate>(csim));
        WorkerMsg msg;
        msg.fnIdx = fn_idx;
        msg.request = req;
        sendRequest(w, msg,
                    PendingReq{csim.now(), replies.back().get(), nullptr});
    }
    for (auto &gate : replies)
        co_await gate->wait();
}

sim::Task<void>
ParallelFleet::arrivalLoop(int fn_idx, sim::Latch *done)
{
    sim::Simulation &csim = kernel.sim(0);
    const std::string &name = fnNames[static_cast<std::size_t>(fn_idx)];
    Rng local(cfg.workload.seed, "azure-arrivals/" + name);
    Duration mean = interarrival[static_cast<std::size_t>(fn_idx)];
    Time deadline = csim.now() + cfg.workload.horizon;

    while (true) {
        Duration gap = static_cast<Duration>(
            local.exponential(static_cast<double>(mean)));
        if (csim.now() + gap >= deadline)
            break;
        co_await csim.delay(gap);
        (void)co_await invokeFn(fn_idx); // closed loop: draw after reply
    }
    done->arrive();
}

sim::Task<void>
ParallelFleet::trafficArrivalLoop(int fn_idx, sim::Latch *done)
{
    // Open loop: arrivals fire on the engine's schedule whether or
    // not earlier invocations completed, so burst events genuinely
    // pile onto the fleet (a closed loop would self-throttle exactly
    // when contention matters).
    sim::Simulation &csim = kernel.sim(0);
    const std::string &name = fnNames[static_cast<std::size_t>(fn_idx)];
    Rng local(trafficEng->config().seed, "traffic-arrivals/" + name);
    Time start = csim.now();
    Duration t = 0;

    while (true) {
        t = trafficEng->nextArrival(fn_idx, t, local);
        if (t >= trafficEng->config().horizon)
            break;
        co_await csim.delay(start + t - csim.now());
        if (admission.empty())
            dispatch(fn_idx, csim.now(), nullptr, nullptr);
        else
            csim.spawn(admitAndDispatch(fn_idx));
    }
    done->arrive();
}

sim::Task<void>
ParallelFleet::driveWorkload()
{
    sim::Simulation &csim = kernel.sim(0);
    if (!trafficEng) {
        std::vector<AzureMixEntry> mix = synthesizeAzureMix(cfg.workload);
        VHIVE_ASSERT(mix.size() == fnNames.size());
        for (std::size_t i = 0; i < mix.size(); ++i) {
            VHIVE_ASSERT(mix[i].profile.name == fnNames[i]);
            interarrival.push_back(mix[i].meanInterarrival);
        }
    }
    sim::Latch done(csim, static_cast<std::int64_t>(fnNames.size()));
    for (std::size_t fn = 0; fn < fnNames.size(); ++fn)
        csim.spawn(trafficEng
                       ? trafficArrivalLoop(static_cast<int>(fn), &done)
                       : arrivalLoop(static_cast<int>(fn), &done));
    co_await done.wait();
}

sim::Task<void>
ParallelFleet::controlTickLoop()
{
    sim::Simulation &csim = kernel.sim(0);

    while (!controlStopping) {
        co_await csim.delay(cfg.controlPeriod);
        if (controlStopping)
            break;

        ControlTickContext ctx;
        ctx.now = csim.now();
        ctx.workers = cfg.workers;
        ctx.coldStarts = result.coldStarts;
        if (result.coldE2eMs.count() > 0)
            ctx.coldP99Ms = result.coldE2eMs.percentile(99);
        ctx.functions.reserve(fnNames.size());
        for (std::size_t fn = 0; fn < fnNames.size(); ++fn) {
            const std::string &name = fnNames[fn];
            ControlFunctionView v;
            v.name = name;
            v.homeWorker = homeWorkerOf(name);
            for (int w = 0; w < cfg.workers; ++w)
                v.idleInstances +=
                    mirrorIdle[static_cast<std::size_t>(w)][fn];
            v.warming =
                preWarmInFlight[fn] != 0 || prefetchInFlight[fn] != 0;
            // One-hop-stale residency mirror, refreshed by every Done
            // reply: low residency on the home worker lets the policy
            // emit Prefetch actions.
            v.homeChunkResidency =
                mirrorResidency[static_cast<std::size_t>(
                    v.homeWorker)][fn];
            ctx.functions.push_back(std::move(v));
        }

        std::vector<ControlAction> actions;
        activeControl->tick(ctx, actions);
        for (const ControlAction &a : actions) {
            if (a.kind == ControlAction::Kind::ScaleHint) {
                // Fleet-wide: every janitor holds its next sweeps.
                if (a.hint <= 0)
                    continue;
                WorkerMsg hint;
                hint.kind = WorkerMsg::ScaleHint;
                hint.hold = a.hint;
                for (auto &node : nodes)
                    node->fromControl->send(hint);
                continue;
            }
            bool prefetch = a.kind == ControlAction::Kind::Prefetch;
            auto it = fnIndex.find(a.function);
            if (it == fnIndex.end())
                continue;
            auto fn = static_cast<std::size_t>(it->second);
            if (prefetch ? prefetchInFlight[fn] != 0
                         : preWarmInFlight[fn] != 0)
                continue;
            int widx = a.worker;
            if (widx < 0 || widx >= cfg.workers)
                widx = homeWorkerOf(a.function);
            if (prefetch)
                prefetchInFlight[fn] = 1;
            else
                preWarmInFlight[fn] = 1;

            // A first-class pending request, like any invocation; it
            // does not claim mirror state.
            WorkerMsg msg;
            msg.fnIdx = static_cast<int>(fn);
            msg.request = prefetch ? Request::Prefetch : Request::PreWarm;
            msg.pinUntil = a.until;
            sendRequest(widx, msg, PendingReq{csim.now(), nullptr, nullptr});
        }
    }
}

sim::Task<void>
ParallelFleet::controlMain()
{
    sim::Simulation &csim = kernel.sim(0);

    sim::Latch ready(csim, cfg.workers);
    sim::Latch byes(csim, cfg.workers);
    for (int w = 0; w < cfg.workers; ++w)
        csim.spawn(replyPump(w, &ready, &byes));
    co_await ready.wait();

    if (activeControl)
        csim.spawn(controlTickLoop());

    FleetClient client(*this);
    co_await script(client);

    // Stop issuing control actions before draining: a tick runs
    // synchronously within one resumption, so after this flag no
    // pre-warm can slip in between drain and Shutdown. Pre-warms
    // already in flight are pending entries the drain waits out.
    controlStopping = true;

    if (!pending.empty()) {
        // Open-loop stragglers: wait for every in-flight request's
        // Done before asking workers to shut down.
        drainGate = std::make_unique<sim::Gate>(csim);
        co_await drainGate->wait();
    }

    for (auto &node : nodes)
        node->fromControl->send(
            WorkerMsg{WorkerMsg::Shutdown, 0, 0});
    co_await byes.wait();
}

FleetStats
ParallelFleet::run()
{
    return run(workloadProfiles(),
               [](FleetClient &client) { return client.driveWorkload(); });
}

FleetStats
ParallelFleet::run(std::vector<func::FunctionProfile> population,
                   FleetScript body)
{
    VHIVE_ASSERT(!script); // one-shot
    VHIVE_ASSERT(body);
    deploy(std::move(population));
    script = std::move(body);
    for (int w = 0; w < cfg.workers; ++w)
        kernel.sim(1 + w).spawn(workerMain(w));
    if (cfg.sharedSnapshots)
        for (int w = 0; w < cfg.workers; ++w)
            kernel.sim(storeDomain()).spawn(storePump(w));
    kernel.sim(0).spawn(controlMain());

    kernel.run();

    result.workers = cfg.workers;
    result.eventsProcessed = kernel.totalEventsProcessed();
    result.windows = kernel.stats().windows;
    result.messages = kernel.stats().messages;
    for (auto &node : nodes) {
        // Every budget-path observable folds into the result (and
        // thus the digest), so the thread-count identity covers
        // eviction, pinning and SSD GC decisions.
        result.scaleDowns += node->scaleDowns;
        result.addWorker(std::move(node->row), node->worker->orchestrator(),
                         fnNames, cfg.sharedSnapshots);
    }
    if (cfg.sharedSnapshots)
        result.addSharedStaging(*sharedStore, *registry);
    return result;
}

} // namespace vhive::cluster

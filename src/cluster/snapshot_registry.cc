#include "cluster/snapshot_registry.hh"

#include <algorithm>

#include "cluster/routing_policy.hh"
#include "util/logging.hh"

namespace vhive::cluster {

sim::Task<StagePayload>
homeStagePayload(core::Worker &home, const std::string &name,
                 core::ColdStartMode mode)
{
    auto &orch = home.orchestrator();
    StagePayload p;

    // Build once: boot + snapshot capture on the home worker.
    std::int64_t builds0 = orch.snapshotBuilds();
    co_await orch.prepareSnapshot(name);
    p.builds = orch.snapshotBuilds() - builds0;

    // Record once: the REAP-family record phase produces the WS and
    // trace files the fleet will prefetch from.
    if (!orch.hasRecord(name)) {
        core::InvokeOptions opts;
        opts.forceCold = true;
        (void)co_await orch.invoke(name, mode, opts);
    }

    p.record = orch.record(name);
    if (mode == core::ColdStartMode::DedupReap) {
        (void)orch.buildManifests(name);
        p.manifests = orch.manifests(name);
    } else {
        p.blobBytes = core::stagedArtifactBytes(
            home.config().vmm.vmmStateSize, p.record);
    }
    co_return p;
}

SnapshotRegistry::SnapshotRegistry(
    sim::Simulation &sim, net::ArtifactStore &store,
    const FleetConfig &cfg,
    const std::vector<std::unique_ptr<core::Worker>> *fleet)
    : sim(sim), store(store), fleet(fleet), workerCount(cfg.workers),
      mode(cfg.coldStartMode)
{
    VHIVE_ASSERT(workerCount >= 1);
    VHIVE_ASSERT(fleet == nullptr ||
                 static_cast<int>(fleet->size()) == workerCount);
    if (cfg.registryChunkBudget > 0)
        sharedChunks.setBudget(cfg.registryChunkBudget,
                               cfg.registryEvictionPolicy,
                               /*refcount_protected=*/true);
}

int
SnapshotRegistry::homeWorkerFor(const std::string &name) const
{
    // Same ring placement as LocalityHashPolicy, so a locality-routed
    // function's home worker is also the one that built (and kept a
    // local copy of) its artifacts.
    return LocalityHashPolicy::homeWorker(name, workerCount);
}

sim::Task<void>
SnapshotRegistry::waitOutOutage(const std::string &name)
{
    if (faults == nullptr)
        co_return;
    // Staging service unavailable: work entering an outage window
    // stalls until it closes (windows are finite, so the loop always
    // exits).
    const std::string fault_key = "staging/" + name;
    while (const sim::FaultWindow *w = faults->roll(
               sim::FaultKind::StagingOutage, fault_key, sim.now())) {
        ++faults->stats().stagingStalls;
        co_await sim.delay(w->end - sim.now());
    }
}

sim::Task<bool>
SnapshotRegistry::claim(const std::string &name)
{
    Entry &e = entries[name];
    if (e.art.staged)
        co_return false;
    if (e.staging) {
        co_await e.done->wait();
        co_return false;
    }
    e.staging = true;
    if (!e.done)
        e.done = std::make_unique<sim::Gate>(sim);
    co_await waitOutOutage(name);
    e.art.homeWorker = homeWorkerFor(name);
    e.art.fetchedBy.assign(static_cast<std::size_t>(workerCount), false);
    co_return true;
}

sim::Task<void>
SnapshotRegistry::ensureStaged(const std::string &name)
{
    VHIVE_ASSERT(fleet != nullptr);
    if (!co_await claim(name))
        co_return;
    Entry &e = entries.at(name);
    StagePayload p = co_await homeStagePayload(
        *(*fleet)[static_cast<std::size_t>(e.art.homeWorker)], name,
        mode);
    co_await upload(name, e, p, nullptr);
    // Fan the metadata out; the artifact bytes move lazily, at each
    // worker's first cold start, through the remote tier.
    fanOut(name, p);
    finish(e, p);
}

sim::Task<void>
SnapshotRegistry::stage(const std::string &name, const StagePayload &p,
                        std::vector<std::pair<std::uint64_t, int>>
                            *placements)
{
    if (!co_await claim(name))
        co_return;
    Entry &e = entries.at(name);
    co_await upload(name, e, p, placements);
    finish(e, p);
}

sim::Task<void>
SnapshotRegistry::upload(
    const std::string &name, Entry &e, const StagePayload &p,
    std::vector<std::pair<std::uint64_t, int>> *placements)
{
    e.art.builds += p.builds;
    const std::string fault_key = "staging/" + name;
    const std::uint64_t scope = net::placementScope(name);
    for (bool staged_ok = false; !staged_ok;) {
        // One staging attempt. A WorkerCrash rolled mid-pass aborts
        // it: per-attempt counters are discarded, chunk references
        // the attempt took are released (rolling the index back), the
        // lost work is paid in simulated time and the pass retries —
        // crash windows are finite and every crash advances time, so
        // the loop terminates and the function still stages exactly
        // once.
        bool crashed = false;
        if (p.manifests) {
            // Chunked staging: upload only chunks no earlier function
            // staged. Duplicate chunks — the shared runtime pages
            // every function's snapshot carries — are referenced in
            // the index and never cross the wire again, fleet-wide.
            const vmm::SnapshotManifests &m = *p.manifests;
            Bytes uploaded = 0;
            Bytes saved = 0;
            std::int64_t total = 0;
            std::int64_t ups = 0;
            std::vector<storage::ChunkRef> taken;
            if (placements != nullptr)
                placements->clear();
            for (const storage::ChunkManifest *man :
                 {&m.vmmState, &m.ws}) {
                for (const storage::ChunkRef &c : man->chunks) {
                    if (faults != nullptr) {
                        if (const sim::FaultWindow *w = faults->roll(
                                sim::FaultKind::WorkerCrash, fault_key,
                                sim.now())) {
                            ++faults->stats().workerCrashes;
                            co_await sim.delay(std::max<Duration>(
                                usec(1), msec(w->magnitude)));
                            crashed = true;
                            break;
                        }
                    }
                    ++total;
                    taken.push_back(c);
                    if (sharedChunks.addRef(c, sim.now())) {
                        co_await store.putChunk(c.storedBytes,
                                                {c.hash, scope});
                        uploaded += c.storedBytes;
                        ++ups;
                    } else {
                        saved += c.storedBytes;
                    }
                    // Read now: under OverlapAware placement a chunk
                    // that dedup-hit another function's in-flight
                    // upload may report a different shard later.
                    if (placements != nullptr)
                        placements->emplace_back(
                            c.hash, store.shardOf({c.hash, scope}));
                }
                if (crashed)
                    break;
            }
            if (crashed) {
                // Roll back every reference this attempt took; chunks
                // it alone stored drop to zero refs and are evicted.
                for (const storage::ChunkRef &c : taken)
                    sharedChunks.release(c.hash);
                continue;
            }
            e.art.chunksTotal += total;
            e.art.chunksUploaded += ups;
            e.art.dedupSavedBytes += saved;
            e.art.stagedBytes = uploaded;
            e.art.logicalBytes = m.rawBytes();
        } else {
            if (faults != nullptr) {
                if (const sim::FaultWindow *w = faults->roll(
                        sim::FaultKind::WorkerCrash, fault_key,
                        sim.now())) {
                    ++faults->stats().workerCrashes;
                    co_await sim.delay(std::max<Duration>(
                        usec(1), msec(w->magnitude)));
                    continue;
                }
            }
            // Stage once: one put() of VMM state + WS file serves
            // every worker (vs one staged copy per worker before).
            co_await store.put(p.blobBytes, {scope, scope});
            e.art.stagedBytes = p.blobBytes;
        }
        staged_ok = true;
    }
}

void
SnapshotRegistry::fanOut(const std::string &name, const StagePayload &p)
{
    for (auto &w : *fleet)
        w->orchestrator().adoptStagedArtifacts(name, p.record,
                                               p.manifests);
}

void
SnapshotRegistry::finish(Entry &e, const StagePayload &p)
{
    e.stagedManifests = p.manifests;
    e.art.staged = true;
    e.staging = false;
    e.done->openGate();
}

sim::Task<void>
SnapshotRegistry::restage(const std::string &name)
{
    VHIVE_ASSERT(fleet != nullptr);
    auto it = entries.find(name);
    VHIVE_ASSERT(it != entries.end());
    Entry &e = it->second;
    if (e.staging) {
        // Fold into the in-flight (re)staging pass.
        co_await e.done->wait();
        co_return;
    }
    VHIVE_ASSERT(e.art.staged);
    e.staging = true;
    e.art.staged = false;
    e.done = std::make_unique<sim::Gate>(sim); // old gate is open

    // Claim the outgoing version's references before any suspension:
    // they stay held through the new staging pass so unchanged chunks
    // dedup-hit instead of re-uploading.
    auto prev = std::move(e.stagedManifests);

    co_await waitOutOutage(name);

    // Invalidate fleet-wide: no worker may keep serving the stale
    // version's objects, and the home worker's next invocation becomes
    // the re-record phase.
    for (auto &w : *fleet)
        w->orchestrator().invalidateRecord(name);

    // Re-record on the home worker (same path as the first staging).
    StagePayload p = co_await homeStagePayload(
        *(*fleet)[static_cast<std::size_t>(e.art.homeWorker)], name,
        mode);

    const std::int64_t ups0 = e.art.chunksUploaded;
    const std::int64_t tot0 = e.art.chunksTotal;
    co_await upload(name, e, p, nullptr);

    ++e.art.restages;
    const std::int64_t ups = e.art.chunksUploaded - ups0;
    e.art.deltaChunksUploaded += ups;
    e.art.deltaChunksUnchanged += (e.art.chunksTotal - tot0) - ups;
    e.art.deltaBytesUploaded += e.art.stagedBytes; // per-pass bytes

    if (prev) {
        // The delta landed: release the previous version. Chunks the
        // new manifests carried over stay referenced; chunks only the
        // old version used drop their last reference here.
        sharedChunks.releaseManifest(prev->vmmState);
        sharedChunks.releaseManifest(prev->ws);
    }

    fanOut(name, p);
    finish(e, p);
}

void
SnapshotRegistry::retire(const std::string &name)
{
    auto it = entries.find(name);
    if (it == entries.end())
        return;
    Entry &e = it->second;
    VHIVE_ASSERT(!e.staging);
    if (e.stagedManifests) {
        const Bytes bytes0 = sharedChunks.storedBytes();
        sharedChunks.releaseManifest(e.stagedManifests->vmmState);
        sharedChunks.releaseManifest(e.stagedManifests->ws);
        _gcReleasedBytes += bytes0 - sharedChunks.storedBytes();
    }
    ++_retires;
    entries.erase(it);
}

bool
SnapshotRegistry::isStaged(const std::string &name) const
{
    auto it = entries.find(name);
    return it != entries.end() && it->second.art.staged;
}

const StagedArtifact &
SnapshotRegistry::artifact(const std::string &name) const
{
    auto it = entries.find(name);
    if (it == entries.end())
        fatal("function %s was never staged", name.c_str());
    return it->second.art;
}

void
SnapshotRegistry::noteRemoteFetch(const std::string &name, int worker)
{
    auto it = entries.find(name);
    if (it == entries.end() || !it->second.art.staged)
        return;
    StagedArtifact &art = it->second.art;
    ++art.remoteFetches;
    if (worker >= 0 &&
        worker < static_cast<int>(art.fetchedBy.size()))
        art.fetchedBy[static_cast<size_t>(worker)] = true;
}

std::int64_t
SnapshotRegistry::totalBuilds() const
{
    std::int64_t n = 0;
    for (const auto &entry : entries)
        n += entry.second.art.builds;
    return n;
}

Bytes
SnapshotRegistry::totalStagedBytes() const
{
    Bytes n = 0;
    for (const auto &entry : entries)
        n += entry.second.art.stagedBytes;
    return n;
}

} // namespace vhive::cluster

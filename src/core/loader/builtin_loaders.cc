#include "core/loader/builtin_loaders.hh"

#include <algorithm>

#include "mem/chunk_source.hh"
#include "mem/page_fetch.hh"
#include "mem/tiered_source.hh"
#include "util/logging.hh"

namespace vhive::core::loader {

namespace {

/** Copy the serve-phase results into the breakdown. */
void
noteServe(LatencyBreakdown &bd, const vmm::InvocationBreakdown &res)
{
    bd.connRestore = res.connRestore;
    bd.processing = res.processing;
    bd.majorFaults = res.majorFaults;
}

/** Worker goroutines for the ParallelPageFaults design point. */
constexpr int kParallelPfWorkers = 16;

/**
 * Per-page cost of the Sec. 7.3 layout re-randomization rewrite: one
 * guest page-table update per installed working-set page.
 */
constexpr Duration kRerandomizePerPage = 900;

} // namespace

// --------------------------------------------------------------- Boot

sim::Task<LatencyBreakdown>
BootLoader::load(LoadContext ctx)
{
    FunctionState &st = ctx.st;
    Instance &inst = ctx.inst;
    st.ensureRootfs(ctx.fs);
    inst.busy = true;
    LatencyBreakdown bd;
    Time t0 = ctx.sim.now();

    co_await inst.vm->bootFromScratch(ctx.gen.boot(st.profile),
                                      st.rootfs,
                                      st.profile.rootfsBootRead);
    bd.loadVmm = ctx.sim.now() - t0; // boot replaces VMM-state load

    auto res = co_await inst.vm->serveInvocation(ctx.trace,
                                                 &ctx.objectStore);
    noteServe(bd, res);
    bd.total = ctx.sim.now() - t0;
    inst.busy = false;
    ++st.stats.bootInvocations;
    co_return bd;
}

// ------------------------------------------------------------ Vanilla

sim::Task<LatencyBreakdown>
VanillaSnapshotLoader::load(LoadContext ctx)
{
    FunctionState &st = ctx.st;
    Instance &inst = ctx.inst;
    inst.busy = true;
    LatencyBreakdown bd;
    Time t0 = ctx.sim.now();

    co_await inst.vm->loadVmmState(st.snapshot);
    co_await inst.vm->resumeLazy(st.snapshot);
    bd.loadVmm = ctx.sim.now() - t0;

    auto res = co_await inst.vm->serveInvocation(ctx.trace,
                                                 &ctx.objectStore);
    noteServe(bd, res);
    bd.total = ctx.sim.now() - t0;
    inst.busy = false;
    co_return bd;
}

// ------------------------------------------------------------- Record

sim::Task<LatencyBreakdown>
RecordLoader::load(LoadContext ctx)
{
    FunctionState &st = ctx.st;
    Instance &inst = ctx.inst;
    inst.busy = true;
    LatencyBreakdown bd;
    bd.recordPhase = true;
    Time t0 = ctx.sim.now();

    co_await inst.vm->loadVmmState(st.snapshot);

    inst.uffd =
        std::make_unique<mem::UserFaultFd>(ctx.sim, ctx.uffdParams);
    inst.vm->registerUffd(st.snapshot, inst.uffd.get());
    inst.monitor = std::make_unique<Monitor>(
        ctx.sim, ctx.fs, *inst.uffd, inst.vm->guestMemory(),
        st.snapshot.guestMemory, Monitor::Mode::Record);
    ctx.sim.spawn(inst.monitor->run());

    co_await inst.vm->resumeVcpus();
    bd.loadVmm = ctx.sim.now() - t0;

    auto res = co_await inst.vm->serveInvocation(ctx.trace,
                                                 &ctx.objectStore);
    noteServe(bd, res);
    bd.total = ctx.sim.now() - t0;

    // Post-response: persist the trace and WS files (Sec. 5.2.1).
    st.record = inst.monitor->recorded();
    st.recorded = true;
    st.remoteStaged = false; // new record invalidates staged objects
    st.tierAdmitCounts.clear(); // old content's admission history
    if (st.manifests) {
        // Re-record without a prior invalidateRecord (adaptive
        // re-record): keep the outgoing manifests as the previous
        // version so staging can diff against them — their
        // staged-chunk references stay held until the delta lands. A
        // version displaced before ever re-staging is unreachable;
        // its references go now.
        if (st.prevManifests) {
            ctx.stagedChunks.releaseManifest(
                st.prevManifests->vmmState);
            ctx.stagedChunks.releaseManifest(st.prevManifests->ws);
        }
        st.prevManifests = std::move(st.manifests);
        st.manifests.reset();
    }
    ++st.recordVersion; // v1 on first record, v2+ on re-records
    ++st.stats.recordPhases;

    auto [ws_bytes, trace_bytes] = st.ensureArtifactFiles(ctx.fs);
    // The monitor already holds the page contents; write both files
    // (buffered, with asynchronous writeback).
    co_await ctx.fs.writeBuffered(st.wsFile, 0, ws_bytes);
    co_await ctx.fs.writeBuffered(st.traceFile, 0, trace_bytes);
    st.artifactsLocal = true;

    inst.busy = false;
    co_return bd;
}

// ----------------------------------------------------- Prefetch family

sim::Task<void>
PrefetchLoader::ensureStaged(LoadContext ctx)
{
    (void)ctx;
    co_return;
}

sim::Task<void>
PrefetchLoader::preRestore(LoadContext ctx)
{
    (void)ctx;
    co_return;
}

sim::Task<void>
PrefetchLoader::fetchWs(LoadContext &ctx,
                        mem::PageFetchPipeline &pipeline, Bytes len,
                        Duration *out)
{
    (void)ctx;
    co_await pipeline.fetchContiguousTimed(0, len, out);
}

sim::Task<void>
PrefetchLoader::installWorkingSet(LoadContext &ctx)
{
    FunctionState &st = ctx.st;
    Instance &inst = ctx.inst;
    // One UFFDIO_COPY per batch, then mark contiguous runs present.
    co_await inst.uffd->copyCost(st.record.pageCount(),
                                 ctx.reap.installBatchPages);
    if (ctx.reap.rerandomizeLayout) {
        // Sec. 7.3: rewrite guest page tables so each clone gets a
        // fresh layout; proportional one-time install cost.
        co_await ctx.sim.delay(kRerandomizePerPage *
                               st.record.pageCount());
        ++st.stats.layoutRerandomizations;
    }
    auto sorted = st.record.sortedPages();
    size_t i = 0;
    while (i < sorted.size()) {
        size_t j = i + 1;
        while (j < sorted.size() && sorted[j] == sorted[j - 1] + 1)
            ++j;
        inst.vm->guestMemory().installRange(
            sorted[i], static_cast<std::int64_t>(j - i));
        i = j;
    }
}

sim::Task<LatencyBreakdown>
PrefetchLoader::load(LoadContext ctx)
{
    FunctionState &st = ctx.st;
    Instance &inst = ctx.inst;
    inst.busy = true;
    co_await ensureStaged(ctx);

    LatencyBreakdown bd;
    Time t0 = ctx.sim.now();

    auto source = makeSource(ctx);
    mem::PageFetchPipeline pipeline(ctx.sim, *source);
    pipeline.setHedgeDelay(ctx.reap.hedgeAfter);
    Bytes ws_bytes = st.record.wsFileBytes();

    // Interleaved shapes own their fetch timing; overlapping would
    // leave fetch_task running past this frame's lifetime.
    bool overlap = supportsOverlap() && !interleavedInstall() &&
                   ctx.reap.overlapFetchWithVmmLoad;
    sim::Task<void> fetch_task;
    if (overlap) {
        fetch_task = fetchWs(ctx, pipeline, ws_bytes, &bd.fetchWs);
        fetch_task.start(ctx.sim);
    }

    co_await preRestore(ctx);
    co_await inst.vm->loadVmmState(st.snapshot);
    bd.loadVmm = ctx.sim.now() - t0;

    inst.uffd =
        std::make_unique<mem::UserFaultFd>(ctx.sim, ctx.uffdParams);
    inst.vm->registerUffd(st.snapshot, inst.uffd.get());

    if (interleavedInstall()) {
        Time f0 = ctx.sim.now();
        co_await pipeline.fetchAndInstallPages(
            st.record.pages, kParallelPfWorkers, *inst.uffd,
            inst.vm->guestMemory());
        bd.fetchWs = ctx.sim.now() - f0;
    } else {
        if (overlap)
            co_await fetch_task;
        else
            co_await fetchWs(ctx, pipeline, ws_bytes, &bd.fetchWs);
        Time i0 = ctx.sim.now();
        co_await installWorkingSet(ctx);
        bd.installWs = ctx.sim.now() - i0;
    }
    bd.prefetchedPages = st.record.pageCount();
    for (const auto &t : pipeline.stats().tiers) {
        TierBreakdown row;
        row.tier = t.label;
        row.hits = t.hits;
        row.misses = t.misses;
        row.admissions = t.admissions;
        row.bytes = t.bytes;
        row.residentBytes = t.residentBytes;
        row.peakResidentBytes = t.peakResidentBytes;
        row.bytesEvicted = t.bytesEvicted;
        row.time = t.time;
        bd.tierHits.push_back(std::move(row));
    }
    if (ctx.tierBudget != nullptr) {
        // The page-cache tier's byte economics are worker-wide (one
        // tracker spans every function's WS file), so the row carries
        // the tracker's aggregate residency rather than a per-chain
        // figure.
        for (auto &row : bd.tierHits) {
            if (row.tier != "page-cache")
                continue;
            row.residentBytes = ctx.tierBudget->residentBytes();
            row.peakResidentBytes =
                ctx.tierBudget->peakResidentBytes();
            row.bytesEvicted = ctx.tierBudget->evictedBytes();
        }
    }

    inst.monitor = std::make_unique<Monitor>(
        ctx.sim, ctx.fs, *inst.uffd, inst.vm->guestMemory(),
        st.snapshot.guestMemory, Monitor::Mode::Prefetch);
    ctx.sim.spawn(inst.monitor->run());

    std::int64_t faults0 = inst.uffd->stats().faultsDelivered;
    co_await inst.vm->resumeVcpus();

    if (!ctx.opts.warmupOnly) {
        auto res = co_await inst.vm->serveInvocation(ctx.trace,
                                                     &ctx.objectStore);
        noteServe(bd, res);
    }
    // Pre-warm (warmupOnly): the instance is left resumed and idle
    // with its working set installed; the first real invocation serves
    // warm on it.
    bd.residualFaults = inst.uffd->stats().faultsDelivered - faults0;
    bd.total = ctx.sim.now() - t0;
    inst.residualBaseline = inst.uffd->stats().faultsDelivered;

    // Sec. 7.2: detect low working-set usage and re-record next time.
    if (ctx.reap.adaptiveRerecord &&
        static_cast<double>(bd.residualFaults) >
            ctx.reap.rerecordThreshold *
                static_cast<double>(st.record.pageCount())) {
        st.recorded = false;
        st.remoteStaged = false;
        ++st.stats.rerecordsTriggered;
    }

    inst.busy = false;
    co_return bd;
}

std::unique_ptr<mem::PageSource>
ParallelPageFaultsLoader::makeSource(LoadContext &ctx) const
{
    // Page-sized reads of the full guest-memory image, via the cache.
    return std::make_unique<mem::BufferedFileSource>(
        ctx.fs, ctx.st.snapshot.guestMemory);
}

std::unique_ptr<mem::PageSource>
WsFileCachedLoader::makeSource(LoadContext &ctx) const
{
    return std::make_unique<mem::BufferedFileSource>(ctx.fs,
                                                     ctx.st.wsFile);
}

std::unique_ptr<mem::PageSource>
ReapLoader::makeSource(LoadContext &ctx) const
{
    if (ctx.reap.bypassPageCache)
        return std::make_unique<mem::DirectFileSource>(ctx.fs,
                                                       ctx.st.wsFile);
    return std::make_unique<mem::BufferedFileSource>(ctx.fs,
                                                     ctx.st.wsFile);
}

// --------------------------------------------------------- RemoteReap

namespace {

/**
 * Placement key for one function's artifacts: content and scope are
 * both the function-name hash, so blob artifacts hash-place per
 * function and chunk uploads carry the owning function as scope for
 * overlap-aware co-location. Unsharded stores ignore it.
 */
net::PlacementKey
artifactKey(const LoadContext &ctx)
{
    std::uint64_t h = net::placementScope(ctx.st.profile.name);
    return {h, h};
}

} // namespace

std::unique_ptr<mem::PageSource>
RemoteReapLoader::makeSource(LoadContext &ctx) const
{
    return std::make_unique<mem::RemoteObjectSource>(ctx.artifactStore,
                                                     artifactKey(ctx));
}

sim::Task<void>
RemoteReapLoader::ensureStaged(LoadContext ctx)
{
    // One-time upload of the snapshot artifacts (VMM state + WS file)
    // into the store — off the timed restore path, like snapshot
    // creation itself (Sec. 7.1).
    if (ctx.st.remoteStaged)
        co_return;
    co_await ctx.artifactStore.put(
        stagedArtifactBytes(ctx.vmmParams.vmmStateSize, ctx.st.record),
        artifactKey(ctx));
    ctx.st.remoteStaged = true;
}

sim::Task<void>
RemoteReapLoader::preRestore(LoadContext ctx)
{
    // The serialized VMM/device state arrives as one bulk GET, then
    // lands in the local state file's cache pages so the restore
    // deserializes from memory rather than re-reading the disk.
    co_await ctx.artifactStore.get(ctx.vmmParams.vmmStateSize,
                                   artifactKey(ctx));
    co_await ctx.fs.writeBuffered(ctx.st.snapshot.vmmState, 0,
                                  ctx.vmmParams.vmmStateSize);
}

// --------------------------------------------------------- TieredReap

std::unique_ptr<mem::PageSource>
TieredReapLoader::makeSource(LoadContext &ctx) const
{
    auto tiered = std::make_unique<mem::TieredPageSource>(ctx.sim);
    FunctionState *st = &ctx.st;
    storage::FileStore *fs = &ctx.fs;
    storage::FileId ws = st->wsFile;

    // Page-cache budget tracking: register the WS file's evictor and
    // mirror admissions/serves into the worker-wide tracker. With a
    // zero budget this is pure accounting (peak-resident reporting);
    // a non-zero budget sheds segments through dropFileCacheRange.
    mem::TierCacheBudget *tb = ctx.tierBudget;
    sim::Simulation *simp = &ctx.sim;
    if (tb != nullptr) {
        tb->registerFile(ws, [fs, ws](Bytes off, Bytes len) {
            fs->dropFileCacheRange(ws, off, len);
        });
    }

    std::function<void(Bytes, Bytes)> onServe;
    if (tb != nullptr) {
        onServe = [tb, ws](Bytes off, Bytes len) {
            tb->touched(ws, off, len);
        };
    }
    tiered->addTier(mem::TieredPageSource::Tier{
        "page-cache",
        std::make_unique<mem::BufferedFileSource>(*fs, ws),
        [fs, ws](Bytes off, Bytes len) {
            return fs->isCached(ws, off, len);
        },
        nullptr, std::move(onServe)});
    // Admission lands remote bytes in the WS file's cache pages with
    // asynchronous writeback — one hook populates both local tiers,
    // hung off the SSD tier (the one adjacent to the remote backstop)
    // so only remote serves trigger it and the cost is paid once per
    // miss range. O_DIRECT SSD serves must never admit into the page
    // cache.
    tiered->addTier(mem::TieredPageSource::Tier{
        "local-ssd",
        std::make_unique<mem::DirectFileSource>(*fs, ws),
        [st](Bytes, Bytes) { return st->artifactsLocal; },
        [fs, ws, tb, simp](Bytes off, Bytes len) {
            if (tb != nullptr)
                tb->admitted(ws, off, len, simp->now());
            return fs->writeBuffered(ws, off, len);
        },
        nullptr});
    tiered->addTier(mem::TieredPageSource::Tier{
        "remote", makeBackstop(ctx), nullptr, nullptr, nullptr});
    // Persist the serve counters on the function so admit-on-N-hits
    // spans cold starts (the chain itself is rebuilt per start).
    tiered->setAdmitAfterHits(ctx.reap.admitAfterHits,
                              &st->tierAdmitCounts);
    return tiered;
}

std::unique_ptr<mem::PageSource>
TieredReapLoader::makeBackstop(LoadContext &ctx) const
{
    return std::make_unique<mem::RemoteObjectSource>(ctx.artifactStore,
                                                     artifactKey(ctx));
}

sim::Task<void>
TieredReapLoader::ensureStaged(LoadContext ctx)
{
    bool was_staged = ctx.st.remoteStaged;
    co_await RemoteReapLoader::ensureStaged(ctx);
    if (!was_staged) {
        // Model the next cold start on a worker with no local copy
        // (cross-worker sharing via the store): the remote tier is the
        // only valid one until admission re-populates the chain.
        ctx.st.evictLocalArtifacts(ctx.fs);
    }
}

sim::Task<void>
TieredReapLoader::preRestore(LoadContext ctx)
{
    // The VMM/device state follows the same tiering: local copies are
    // deserialized in place; a fresh worker GETs the state object and
    // lands it in the local file's cache pages (RemoteReap's path).
    if (ctx.st.artifactsLocal)
        co_return;
    co_await RemoteReapLoader::preRestore(ctx);
}

sim::Task<void>
TieredReapLoader::fetchWs(LoadContext &ctx,
                          mem::PageFetchPipeline &pipeline, Bytes len,
                          Duration *out)
{
    co_await pipeline.fetchWindowedTimed(0, len,
                                         ctx.reap.tieredWindowBytes,
                                         ctx.reap.tieredInFlight, out);
    promoteArtifactsLocal(ctx, pipeline, len);
}

void
TieredReapLoader::promoteArtifactsLocal(LoadContext &ctx,
                                        mem::PageFetchPipeline &pipeline,
                                        Bytes len)
{
    // The worker holds a complete local copy only when admission put
    // one there: every byte of this fetch must have come from the
    // remote tier AND been admitted on the way through. A fetch
    // served (even partly) by the page cache proves nothing about the
    // SSD copy an earlier eviction may have dropped, and under
    // admit-on-N-hits a remote serve below the threshold admits
    // nothing at all.
    if (ctx.st.artifactsLocal)
        return;
    bool remote_all = false;
    Bytes admitted = 0;
    for (const auto &t : pipeline.stats().tiers) {
        if (t.label == "remote" && t.bytes >= len)
            remote_all = true;
        // Only the chain's own local tiers prove a local file copy
        // (a chunked backstop's internal cache admissions do not).
        if (t.label == "local-ssd" || t.label == "page-cache")
            admitted += t.bytesAdmitted;
    }
    if (remote_all && admitted >= len)
        ctx.st.artifactsLocal = true;
}

// ---------------------------------------------------------- DedupReap

namespace {

/**
 * Chunked remote backstop over the function's WS manifest, pinned
 * against a concurrent invalidateRecord(). Shared by DedupReap and
 * BackgroundWarm (which keeps the chunked path for content-addressed
 * functions).
 */
std::unique_ptr<mem::PageSource>
chunkedBackstop(const LoadContext &ctx)
{
    VHIVE_ASSERT(ctx.st.manifests != nullptr);
    auto src = std::make_unique<mem::ChunkPageSource>(
        ctx.sim, ctx.artifactStore, ctx.st.manifests->ws,
        &ctx.localChunks, mem::ChunkSourceParams{}, &ctx.chunkFlights,
        artifactKey(ctx).scope);
    // An invalidateRecord() or re-record while this cold start is in
    // flight drops the function's manifests; the source must outlive
    // that release.
    src->retain(ctx.st.manifests);
    return src;
}

/**
 * Chunked VMM-state transfer: the state manifest's chunks arrive as
 * batched compressed GETs (minus the worker's chunk-cache holdings)
 * and land in the local state file. Shared for the same reason.
 */
sim::Task<void>
chunkedStateRestore(LoadContext ctx)
{
    VHIVE_ASSERT(ctx.st.manifests != nullptr);
    // Pinned: a concurrent invalidateRecord() must not free the
    // manifest mid-read.
    auto pinned = ctx.st.manifests;
    mem::ChunkPageSource state_src(ctx.sim, ctx.artifactStore,
                                   pinned->vmmState,
                                   &ctx.localChunks,
                                   mem::ChunkSourceParams{},
                                   &ctx.chunkFlights,
                                   artifactKey(ctx).scope);
    co_await state_src.readAll();
    co_await ctx.fs.writeBuffered(ctx.st.snapshot.vmmState, 0,
                                  ctx.vmmParams.vmmStateSize);
}

} // namespace

std::unique_ptr<mem::PageSource>
DedupReapLoader::makeBackstop(LoadContext &ctx) const
{
    return chunkedBackstop(ctx);
}

sim::Task<void>
DedupReapLoader::ensureStaged(LoadContext ctx)
{
    const vmm::SnapshotManifests &m =
        ensureManifests(ctx.st, ctx.reap, ctx.vmmParams);
    // Keep m alive across the staging awaits even if a concurrent
    // invalidateRecord() drops the function's reference.
    auto pinned = ctx.st.manifests;
    // Claim the previous version's manifests (delta re-record) before
    // the first suspension point, so a concurrent second staging pass
    // cannot release them twice. Their staged-chunk references stay
    // held until staging below completes.
    auto prev = std::move(ctx.st.prevManifests);
    if (ctx.st.remoteStaged) {
        if (prev) {
            // Staged concurrently while we were dispatched: the
            // winner already released (or inherited) nothing — these
            // references are ours to drop.
            ctx.stagedChunks.releaseManifest(prev->vmmState);
            ctx.stagedChunks.releaseManifest(prev->ws);
        }
        co_return;
    }
    // Chunk-level staging: upload only chunks the staged index has
    // not seen — cross-function duplicates (and in-artifact repeats)
    // are referenced, not re-uploaded, and travel compressed. On a
    // re-record the previous version's references are still live, so
    // unchanged chunks dedup-hit here and only churned chunks move:
    // the delta.
    std::int64_t uploaded = 0;
    std::int64_t unchanged = 0;
    Bytes uploaded_bytes = 0;
    for (const storage::ChunkManifest *man : {&m.vmmState, &m.ws}) {
        for (const storage::ChunkRef &c : man->chunks) {
            if (ctx.stagedChunks.addRef(c, ctx.sim.now())) {
                ++uploaded;
                uploaded_bytes += c.storedBytes;
                co_await ctx.artifactStore.putChunk(
                    c.storedBytes, {c.hash, artifactKey(ctx).scope});
            } else {
                ++unchanged;
            }
        }
    }
    ctx.st.remoteStaged = true;
    if (prev) {
        // The delta landed: release the previous version. Chunks
        // carried over stay referenced by the new manifests; chunks
        // only the old version used drop their last reference here.
        ++ctx.st.stats.deltaRestages;
        ctx.st.stats.deltaChunksUploaded += uploaded;
        ctx.st.stats.deltaBytesUploaded += uploaded_bytes;
        ctx.st.stats.deltaChunksUnchanged += unchanged;
        ctx.stagedChunks.releaseManifest(prev->vmmState);
        ctx.stagedChunks.releaseManifest(prev->ws);
    }
    // Same fresh-worker model as TieredReap: the first cold start
    // after staging pays the (chunked) remote path.
    ctx.st.evictLocalArtifacts(ctx.fs);
}

sim::Task<void>
DedupReapLoader::preRestore(LoadContext ctx)
{
    // The serialized VMM/device state follows the chunked path too:
    // local copies deserialize in place; otherwise its manifest chunks
    // arrive as batched compressed GETs (minus what the worker's chunk
    // cache already holds) and land in the local state file.
    if (ctx.st.artifactsLocal)
        co_return;
    co_await chunkedStateRestore(ctx);
}

// ------------------------------------------------------ BackgroundWarm

sim::Task<void>
BackgroundWarmLoader::ensureStaged(LoadContext ctx)
{
    // Content-addressed functions were chunk-staged by the dedup
    // loader or the fleet registry; blob staging would double-count
    // the artifact bytes. Blob-addressed functions keep the tiered
    // (blob) staging path.
    if (ctx.st.manifests != nullptr)
        co_return;
    co_await TieredReapLoader::ensureStaged(ctx);
}

sim::Task<void>
BackgroundWarmLoader::preRestore(LoadContext ctx)
{
    if (ctx.st.artifactsLocal)
        co_return;
    if (ctx.st.manifests != nullptr) {
        co_await chunkedStateRestore(ctx);
        co_return;
    }
    co_await TieredReapLoader::preRestore(ctx);
}

sim::Task<void>
BackgroundWarmLoader::fetchWs(LoadContext &ctx,
                              mem::PageFetchPipeline &pipeline,
                              Bytes len, Duration *out)
{
    // The background shape: one window in flight, AIMD-sized, with a
    // pacing pause between windows — warming cedes store streams and
    // fabric to concurrent foreground cold starts.
    co_await pipeline.fetchBackgroundTimed(0, len, kBgWarmPace, out);
    promoteArtifactsLocal(ctx, pipeline, len);
}

std::unique_ptr<mem::PageSource>
BackgroundWarmLoader::makeBackstop(LoadContext &ctx) const
{
    if (ctx.st.manifests != nullptr)
        return chunkedBackstop(ctx);
    return TieredReapLoader::makeBackstop(ctx);
}

} // namespace vhive::core::loader

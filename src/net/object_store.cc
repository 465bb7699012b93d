#include "net/object_store.hh"

#include <algorithm>
#include <optional>

namespace vhive::net {

void
ObjectStoreStats::merge(const ObjectStoreStats &other)
{
    gets += other.gets;
    puts += other.puts;
    rangedGets += other.rangedGets;
    bytesServed += other.bytesServed;
    bytesStored += other.bytesStored;
    chunkPuts += other.chunkPuts;
    chunkBatches += other.chunkBatches;
    chunksServed += other.chunksServed;
    streamWaits += other.streamWaits;
    streamWaitTime += other.streamWaitTime;
    peakStreamQueue = std::max(peakStreamQueue, other.peakStreamQueue);
    requestRetries += other.requestRetries;
    outageStalls += other.outageStalls;
}

ObjectStoreParams
ObjectStoreParams::remote()
{
    ObjectStoreParams p;
    // Same service-side request handling as the same-host deployment
    // (auth, metadata lookup) plus one datacenter-network round trip
    // before the first byte — remote is strictly costlier per GET.
    p.rtt = usec(350);
    // Same per-stream backend rate as the loopback deployment; what
    // changes remotely is the round trip and the bounded stream
    // count, both of which a single bulk transfer amortizes
    // (Sec. 7.1).
    p.concurrentStreams = 8;
    return p;
}

std::uint64_t
placementScope(std::string_view name)
{
    // FNV-1a, matching util::hashName; duplicated here so net/ stays
    // free of util/rng dependencies.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

ObjectStore::ObjectStore(sim::Simulation &sim, ObjectStoreParams params)
    : sim(sim), _params(params)
{
    if (_params.concurrentStreams > 0)
        streams = std::make_unique<sim::Semaphore>(
            sim, _params.concurrentStreams);
}

namespace {

Duration
scaledBy(Duration d, double factor)
{
    return static_cast<Duration>(static_cast<double>(d) * factor);
}

} // namespace

sim::Task<void>
ObjectStore::transfer(Bytes bytes)
{
    if (faults != nullptr) {
        // Unreachable store: the request stalls until the outage
        // window closes (client retry-with-backoff collapses to
        // waiting out the outage in simulated time), then proceeds.
        // Back-to-back windows are waited out in turn; windows are
        // finite, so the loop always exits.
        while (const sim::FaultWindow *w = faults->roll(
                   sim::FaultKind::StoreOutage, faultTag, sim.now())) {
            Duration stall = w->end - sim.now();
            ++faults->stats().outageStalls;
            faults->stats().outageStallTime += stall;
            ++_stats.outageStalls;
            co_await sim.delay(stall);
        }
    }
    std::optional<sim::SemaphoreGuard> guard;
    if (streams) {
        if (streams->availablePermits() == 0) {
            _stats.peakStreamQueue =
                std::max(_stats.peakStreamQueue,
                         streams->queueLength() + 1);
        }
        Time w0 = sim.now();
        co_await streams->acquire();
        if (sim.now() > w0) {
            ++_stats.streamWaits;
            _stats.streamWaitTime += sim.now() - w0;
        }
        guard.emplace(*streams);
    }
    Duration xfer = static_cast<Duration>(static_cast<double>(bytes) /
                                          _params.bandwidth * 1e9);
    Duration service = _params.rtt + _params.requestOverhead + xfer;
    if (faults != nullptr) {
        // Degraded backend: the whole request slows by the window's
        // magnitude (every affected request, service-wide).
        if (const sim::FaultWindow *w = faults->roll(
                sim::FaultKind::LatencyStorm, faultTag, sim.now())) {
            service = scaledBy(service, w->magnitude);
            ++faults->stats().stormHits;
        }
        // Tail straggler: this request alone got unlucky.
        if (const sim::FaultWindow *w = faults->roll(
                sim::FaultKind::Straggler, faultTag, sim.now())) {
            service = scaledBy(service, w->magnitude);
            ++faults->stats().stragglers;
        }
        // Mid-stream errors: each failed attempt pays the round trip,
        // service cost and half the streaming before the client
        // retries. Every iteration advances simulated time, so the
        // loop exits once the window closes even at probability 1.
        Duration retry_cost =
            _params.rtt + _params.requestOverhead + xfer / 2;
        while (retry_cost > 0 &&
               faults->roll(sim::FaultKind::RequestError, faultTag,
                            sim.now()) != nullptr) {
            ++faults->stats().requestErrors;
            ++_stats.requestRetries;
            co_await sim.delay(retry_cost);
        }
    }
    co_await sim.delay(service);
}

sim::Task<void>
ObjectStore::get(Bytes bytes, PlacementKey key)
{
    (void)key;
    ++_stats.gets;
    _stats.bytesServed += bytes;
    co_await transfer(bytes);
}

sim::Task<void>
ObjectStore::getRange(Bytes offset, Bytes bytes, PlacementKey key)
{
    // The model prices requests by size; the offset only matters to
    // the caller's data layout.
    (void)offset;
    (void)key;
    ++_stats.rangedGets;
    co_await get(bytes);
}

sim::Task<void>
ObjectStore::put(Bytes bytes, PlacementKey key)
{
    (void)key;
    ++_stats.puts;
    _stats.bytesStored += bytes;
    co_await transfer(bytes);
}

sim::Task<void>
ObjectStore::putChunk(Bytes stored_bytes, PlacementKey key)
{
    (void)key;
    ++_stats.chunkPuts;
    co_await put(stored_bytes);
}

sim::Task<void>
ObjectStore::getChunks(std::int64_t chunks, Bytes stored_bytes,
                       PlacementKey key)
{
    (void)key;
    ++_stats.chunkBatches;
    _stats.chunksServed += chunks;
    // One multi-range request; the cost and base accounting are
    // exactly a ranged GET of the batch's compressed bytes.
    co_await getRange(0, stored_bytes);
}

} // namespace vhive::net

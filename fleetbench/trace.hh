/**
 * @file
 * Per-layer spans of the traced binary. trace_wrap.cc defines link-time
 * --wrap replacements for layer entry points that are called across
 * object files; each replacement forwards to the real function and
 * records a span here. Spans stay in memory until collect().
 *
 * Synchronous entry points record host time. Coroutine entry points
 * (Orchestrator::invoke, preWarm, backgroundPrefetch) record counts and
 * the simulated LatencyBreakdown they return: a suspended coroutine may
 * resume on another kernel thread, so its host time is not its own.
 */

#ifndef FLEETBENCH_TRACE_HH
#define FLEETBENCH_TRACE_HH

#include <cstdint>

namespace fleetbench::trace {

/** Sums over every thread since the last reset(). */
struct Totals
{
    /** @name func: TraceGenerator::invocation and ::boot. */
    /// @{
    std::int64_t traces = 0;
    std::int64_t tracePages = 0;
    double traceSeconds = 0;
    /// @}

    /** @name sim: both Simulation::runWindow overloads. */
    /// @{
    std::int64_t windowCalls = 0;
    double windowSeconds = 0;
    /// @}

    /** @name storage: ChunkStore::enforceBudget. */
    /// @{
    std::int64_t evictCalls = 0;
    double evictSeconds = 0;
    /// @}

    /** @name core: Orchestrator::invoke. */
    /// @{

    /** Calls that recorded a working set (record phase). */
    std::int64_t recordPhases = 0;

    /** Calls whose cold start an injected crash tore down. */
    std::int64_t crashed = 0;

    /** Serving invocations: not record phases. */
    std::int64_t servingInvokes = 0;
    std::int64_t servingWarm = 0;
    std::int64_t servingCold = 0;

    /**
     * Means over serving cold starts (ms), and the same means over
     * the cold starts whose whole invoke() call, in simulated time,
     * took at least the p90 of those calls (the tail twins).
     */
    double loadVmmMs = 0, loadVmmTailMs = 0;
    double connRestoreMs = 0, connRestoreTailMs = 0;
    double processingMs = 0, processingTailMs = 0;
    double fetchWsMs = 0, fetchWsTailMs = 0;
    double installWsMs = 0, installWsTailMs = 0;

    /** Per serving cold start. */
    double faultsPerCold = 0;
    double residualFaultsPerCold = 0;

    /** Sums over serving cold starts. */
    std::int64_t prefetchedPages = 0;
    std::int64_t wastedPrefetch = 0;
    /// @}

    /** @name cluster: Orchestrator::preWarm / backgroundPrefetch. */
    /// @{
    std::int64_t preWarmCalls = 0;
    std::int64_t prefetchCalls = 0;
    /// @}
};

/** Drop every span recorded so far (call before ParallelFleet::run). */
void reset();

/** Sum the spans of every thread (call after ParallelFleet::run). */
Totals collect();

} // namespace fleetbench::trace

#endif // FLEETBENCH_TRACE_HH

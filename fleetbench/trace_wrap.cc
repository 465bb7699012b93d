/**
 * @file
 * Link-time layer tracing for fleet_bench_traced. The build passes
 * --wrap=<symbol> for every entry point below, so each call from
 * another object file reaches the __wrap_ function, which forwards to
 * __real_ (the original) and records a span. Calls inside the defining
 * object file, and inlined calls, are not seen: run.py fails the traced
 * run when a layer that must be busy reports zero calls, and checks
 * the coroutine counts against ParallelFleetResult, so a refactor that
 * moves a call out of reach shows up instead of zeroing a layer.
 *
 * GCC cannot make an extern "C" function a coroutine, so each
 * coroutine wrapper returns a static coroutine that co_awaits the real
 * one. The __wrap_/__real_ declarations take the object pointer first,
 * which is how the Itanium C++ ABI passes `this`.
 */

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/orchestrator.hh"
#include "fleetbench/trace.hh"
#include "func/trace_gen.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/chunk_store.hh"
#include "util/stats.hh"
#include "util/units.hh"

using namespace vhive;

namespace fleetbench::trace {
namespace {

using Clock = std::chrono::steady_clock;

/** One serving cold start's simulated breakdown. */
struct ColdSpan
{
    /** The whole Orchestrator::invoke call, in simulated time. */
    Duration call = 0;
    Duration loadVmm = 0;
    Duration connRestore = 0;
    Duration processing = 0;
    Duration fetchWs = 0;
    Duration installWs = 0;
    std::int64_t majorFaults = 0;
    std::int64_t residualFaults = 0;
    std::int64_t prefetchedPages = 0;
    std::int64_t wastedPrefetch = 0;
};

/**
 * One thread's spans. Kernel threads record into their own slot
 * without locking; reset() and collect() run on the main thread while
 * the kernel is idle, after ParallelKernel::run() has joined every
 * window.
 */
struct Slot
{
    std::int64_t traces = 0;
    std::int64_t tracePages = 0;
    Clock::duration traceTime{};
    std::int64_t windowCalls = 0;
    Clock::duration windowTime{};
    std::int64_t evictCalls = 0;
    Clock::duration evictTime{};
    std::int64_t recordPhases = 0;
    std::int64_t crashed = 0;
    std::int64_t servingInvokes = 0;
    std::int64_t servingWarm = 0;
    std::vector<ColdSpan> colds;
    std::int64_t preWarmCalls = 0;
    std::int64_t prefetchCalls = 0;
};

std::mutex slotsMu;
std::vector<std::unique_ptr<Slot>> slots; // guarded by slotsMu

Slot &
slot()
{
    thread_local Slot *mine = nullptr;
    if (mine == nullptr) {
        std::lock_guard<std::mutex> lock(slotsMu);
        slots.push_back(std::make_unique<Slot>());
        mine = slots.back().get();
    }
    return *mine;
}

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** Mean of @p field over @p spans in ms (0 when empty). */
template <typename Field>
double
meanMs(const std::vector<const ColdSpan *> &spans, Field field)
{
    if (spans.empty())
        return 0;
    Duration sum = 0;
    for (const ColdSpan *s : spans)
        sum += s->*field;
    return toMs(sum) / static_cast<double>(spans.size());
}

} // namespace

void
reset()
{
    std::lock_guard<std::mutex> lock(slotsMu);
    for (auto &s : slots)
        *s = Slot{};
}

Totals
collect()
{
    std::lock_guard<std::mutex> lock(slotsMu);
    Totals t;
    Clock::duration trace_time{}, window_time{}, evict_time{};
    std::vector<ColdSpan> colds;
    for (const auto &s : slots) {
        t.traces += s->traces;
        t.tracePages += s->tracePages;
        trace_time += s->traceTime;
        t.windowCalls += s->windowCalls;
        window_time += s->windowTime;
        t.evictCalls += s->evictCalls;
        evict_time += s->evictTime;
        t.recordPhases += s->recordPhases;
        t.crashed += s->crashed;
        t.servingInvokes += s->servingInvokes;
        t.servingWarm += s->servingWarm;
        colds.insert(colds.end(), s->colds.begin(), s->colds.end());
        t.preWarmCalls += s->preWarmCalls;
        t.prefetchCalls += s->prefetchCalls;
    }
    t.traceSeconds = seconds(trace_time);
    t.windowSeconds = seconds(window_time);
    t.evictSeconds = seconds(evict_time);
    t.servingCold = static_cast<std::int64_t>(colds.size());

    // The tail: cold starts whose whole invoke() call took at least the
    // p90 of those calls. A fleet e2e sample is that call plus the
    // same two fabric hops, so these are the cold starts behind the
    // fleet's cold_p90.
    Samples calls;
    for (const ColdSpan &c : colds)
        calls.add(toMs(c.call));
    double p90 = calls.percentile(90);
    std::vector<const ColdSpan *> all, tail;
    for (const ColdSpan &c : colds) {
        all.push_back(&c);
        if (toMs(c.call) >= p90)
            tail.push_back(&c);
    }
    t.loadVmmMs = meanMs(all, &ColdSpan::loadVmm);
    t.loadVmmTailMs = meanMs(tail, &ColdSpan::loadVmm);
    t.connRestoreMs = meanMs(all, &ColdSpan::connRestore);
    t.connRestoreTailMs = meanMs(tail, &ColdSpan::connRestore);
    t.processingMs = meanMs(all, &ColdSpan::processing);
    t.processingTailMs = meanMs(tail, &ColdSpan::processing);
    t.fetchWsMs = meanMs(all, &ColdSpan::fetchWs);
    t.fetchWsTailMs = meanMs(tail, &ColdSpan::fetchWs);
    t.installWsMs = meanMs(all, &ColdSpan::installWs);
    t.installWsTailMs = meanMs(tail, &ColdSpan::installWs);

    std::int64_t faults = 0, residual = 0;
    for (const ColdSpan &c : colds) {
        faults += c.majorFaults;
        residual += c.residualFaults;
        t.prefetchedPages += c.prefetchedPages;
        t.wastedPrefetch += c.wastedPrefetch;
    }
    if (!colds.empty()) {
        auto n = static_cast<double>(colds.size());
        t.faultsPerCold = static_cast<double>(faults) / n;
        t.residualFaultsPerCold = static_cast<double>(residual) / n;
    }
    return t;
}

namespace {

void
recordInvoke(const core::LatencyBreakdown &bd, Duration call,
             bool staging)
{
    Slot &s = slot();
    if (bd.recordPhase)
        ++s.recordPhases;
    // Staging and pre-record invokes force a cold start before any
    // traffic; everything else is a serving invocation.
    if (staging)
        return;
    ++s.servingInvokes;
    if (bd.crashed)
        ++s.crashed;
    if (!bd.cold) {
        ++s.servingWarm;
        return;
    }
    s.colds.push_back(ColdSpan{call, bd.loadVmm, bd.connRestore,
                               bd.processing, bd.fetchWs, bd.installWs,
                               bd.majorFaults, bd.residualFaults,
                               bd.prefetchedPages, bd.wastedPrefetch});
}

} // namespace
} // namespace fleetbench::trace

using fleetbench::trace::Clock;
using fleetbench::trace::slot;

// WRAPPED_* name the mangled entry points; the build defines them
// from FLEETBENCH_WRAPPED in CMakeLists.txt, which also passes --wrap
// for each.
#define CAT(a, b) a##b
#define REAL(sym) CAT(__real_, sym)
#define WRAP(sym) CAT(__wrap_, sym)

extern "C" {
sim::Task<core::LatencyBreakdown>
REAL(WRAPPED_INVOKE)(core::Orchestrator *, const std::string &,
                     core::ColdStartMode, core::InvokeOptions);
sim::Task<core::LatencyBreakdown>
REAL(WRAPPED_PREWARM)(core::Orchestrator *, const std::string &,
                      core::ColdStartMode);
sim::Task<Bytes>
REAL(WRAPPED_BG_PREFETCH)(core::Orchestrator *, const std::string &,
                          Time);
func::InvocationTrace
REAL(WRAPPED_TRACE_INVOCATION)(const func::TraceGenerator *,
                               const func::FunctionProfile &,
                               std::int64_t);
func::InvocationTrace
REAL(WRAPPED_TRACE_BOOT)(const func::TraceGenerator *,
                         const func::FunctionProfile &);
void REAL(WRAPPED_RUN_WINDOW)(sim::Simulation *, Time);
void REAL(WRAPPED_RUN_WINDOW_STOP)(sim::Simulation *, Time,
                                   const bool &);
void REAL(WRAPPED_ENFORCE_BUDGET)(storage::ChunkStore *, Time);
}

namespace {

sim::Task<core::LatencyBreakdown>
tracedInvoke(core::Orchestrator *self, const std::string &name,
             core::ColdStartMode mode, core::InvokeOptions opts)
{
    bool staging = opts.forceCold;
    // The call stays in its worker's domain, whichever kernel thread
    // resumes it, so that domain's clock spans the whole call.
    sim::Simulation &sim = *sim::Simulation::current();
    Time t0 = sim.now();
    core::LatencyBreakdown bd =
        co_await REAL(WRAPPED_INVOKE)(self, name, mode, opts);
    fleetbench::trace::recordInvoke(bd, sim.now() - t0, staging);
    co_return bd;
}

sim::Task<core::LatencyBreakdown>
tracedPreWarm(core::Orchestrator *self, const std::string &name,
              core::ColdStartMode mode)
{
    core::LatencyBreakdown bd =
        co_await REAL(WRAPPED_PREWARM)(self, name, mode);
    ++slot().preWarmCalls;
    co_return bd;
}

sim::Task<Bytes>
tracedPrefetch(core::Orchestrator *self, const std::string &name,
               Time pin_until)
{
    Bytes moved =
        co_await REAL(WRAPPED_BG_PREFETCH)(self, name, pin_until);
    ++slot().prefetchCalls;
    co_return moved;
}

} // namespace

extern "C" {

sim::Task<core::LatencyBreakdown>
WRAP(WRAPPED_INVOKE)(core::Orchestrator *self, const std::string &name,
                     core::ColdStartMode mode, core::InvokeOptions opts)
{
    return tracedInvoke(self, name, mode, opts);
}

sim::Task<core::LatencyBreakdown>
WRAP(WRAPPED_PREWARM)(core::Orchestrator *self, const std::string &name,
                      core::ColdStartMode mode)
{
    return tracedPreWarm(self, name, mode);
}

sim::Task<Bytes>
WRAP(WRAPPED_BG_PREFETCH)(core::Orchestrator *self,
                          const std::string &name, Time pin_until)
{
    return tracedPrefetch(self, name, pin_until);
}

func::InvocationTrace
WRAP(WRAPPED_TRACE_INVOCATION)(const func::TraceGenerator *self,
                               const func::FunctionProfile &profile,
                               std::int64_t input)
{
    auto t0 = Clock::now();
    func::InvocationTrace t =
        REAL(WRAPPED_TRACE_INVOCATION)(self, profile, input);
    auto &s = slot();
    s.traceTime += Clock::now() - t0;
    ++s.traces;
    s.tracePages += t.totalPages();
    return t;
}

func::InvocationTrace
WRAP(WRAPPED_TRACE_BOOT)(const func::TraceGenerator *self,
                         const func::FunctionProfile &profile)
{
    auto t0 = Clock::now();
    func::InvocationTrace t = REAL(WRAPPED_TRACE_BOOT)(self, profile);
    auto &s = slot();
    s.traceTime += Clock::now() - t0;
    ++s.traces;
    s.tracePages += t.totalPages();
    return t;
}

void
WRAP(WRAPPED_RUN_WINDOW)(sim::Simulation *self, Time limit)
{
    auto t0 = Clock::now();
    REAL(WRAPPED_RUN_WINDOW)(self, limit);
    auto &s = slot();
    s.windowTime += Clock::now() - t0;
    ++s.windowCalls;
}

void
WRAP(WRAPPED_RUN_WINDOW_STOP)(sim::Simulation *self, Time limit,
                              const bool &stop)
{
    auto t0 = Clock::now();
    REAL(WRAPPED_RUN_WINDOW_STOP)(self, limit, stop);
    auto &s = slot();
    s.windowTime += Clock::now() - t0;
    ++s.windowCalls;
}

void
WRAP(WRAPPED_ENFORCE_BUDGET)(storage::ChunkStore *self, Time now)
{
    auto t0 = Clock::now();
    REAL(WRAPPED_ENFORCE_BUDGET)(self, now);
    auto &s = slot();
    s.evictTime += Clock::now() - t0;
    ++s.evictCalls;
}

} // extern "C"

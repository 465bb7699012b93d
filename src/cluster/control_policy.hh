/**
 * @file
 * Predictive control plane for the fleet (ROADMAP item 2).
 *
 * A `ControlPolicy` observes per-function arrival history plus a
 * fleet-state snapshot each control tick and emits actions:
 *
 *   PreWarm   — spin an instance on the function's hash-home worker
 *               ahead of the predicted next invocation, so the request
 *               lands warm (or, if it arrives mid-pre-warm, degrades to
 *               a partially-warmed start instead of a full cold one).
 *   Prefetch  — warm the home worker's chunk/tier caches in the
 *               background (no instance), cheaper than a pre-warm and
 *               useful further ahead of the predicted window.
 *   ScaleHint — p99-driven capacity hint consumed by the janitor:
 *               positive holds scale-downs while cold latency is over
 *               target, negative shrinks the idle pool faster.
 *
 * Policies are registry-keyed like `SnapshotLoader`s and
 * `RoutingPolicy`s. All built-ins are strictly deterministic: they draw
 * no random numbers and schedule no events themselves, so an installed
 * but idle policy leaves simulations bit-identical, and on the parallel
 * kernel the policy runs entirely in the control-plane domain.
 *
 * The prediction model is hybrid-histogram keep-alive from the Azure
 * trace literature ("Serverless in the Wild"): a per-function
 * inter-arrival histogram yields a [p-lo, p-hi] window for the next
 * invocation; functions whose history is too short or too dispersed
 * fall back to a plain bounded keep-alive.
 */

#ifndef VHIVE_CLUSTER_CONTROL_POLICY_HH
#define VHIVE_CLUSTER_CONTROL_POLICY_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/policy_registry.hh"
#include "util/units.hh"

namespace vhive::cluster {

enum class ControlPolicyKind
{
    /** No control actions; the janitor runs plain keep-alive. */
    None,
    /**
     * Always-warm: any function ever invoked that has no idle instance
     * is pre-warmed every tick. Best cold p99 money can buy, and the
     * wasted-resident-bytes ceiling the histogram policy is judged
     * against.
     */
    NaiveKeepAlive,
    /** Hybrid-histogram keep-alive prediction (the paper policy). */
    HybridHistogram,
    /**
     * Replay-clairvoyant upper bound: fed the exact arrival schedule,
     * pre-warms just-in-time. Perfect accuracy, minimal waste.
     */
    Oracle,
};

const char *controlPolicyName(ControlPolicyKind kind);

/** One action requested by a policy tick. */
struct ControlAction
{
    enum class Kind { PreWarm, Prefetch, ScaleHint };

    Kind kind = Kind::PreWarm;
    /** Function the action targets (PreWarm/Prefetch). */
    std::string function;
    /** Worker to act on (the function's hash-home worker). */
    int worker = 0;
    /** ScaleHint only: >0 hold scale-downs, <0 shrink faster. */
    int hint = 0;
    /**
     * Prefetch only: end of the predicted invocation window. Budgeted
     * caches shield the prefetched bytes from eviction until this time
     * (PrefetchPinned policy); -1 = no shield.
     */
    Time until = -1;
};

/** Per-function slice of the fleet snapshot a policy ticks against. */
struct ControlFunctionView
{
    std::string name;
    /** Hash-home worker under locality routing (pre-warm target). */
    int homeWorker = 0;
    /** Idle (warm, not busy) instances fleet-wide. */
    std::int64_t idleInstances = 0;
    /** Pre-warm already in flight for this function. */
    bool warming = false;
    /** Fraction of the WS chunks resident on the home worker [0,1]. */
    double homeChunkResidency = 0;
};

/** Fleet snapshot handed to `ControlPolicy::tick`. */
struct ControlTickContext
{
    Time now = 0;
    int workers = 1;
    /** Cold-start e2e p99 so far, milliseconds (0 while no colds). */
    double coldP99Ms = 0;
    /** Cumulative cold starts so far (policies diff across ticks). */
    std::int64_t coldStarts = 0;
    std::vector<ControlFunctionView> functions;
};

/**
 * Per-function inter-arrival histogram with fixed-width bins, the
 * "Serverless in the Wild" shape (the trace policy bins at 1-minute
 * resolution over 4 hours; the simulator bins at 5 s over one hour so
 * a predicted window tracks the arrival jitter rather than the bin
 * width — with logarithmic buckets a 5-minute period lands in a
 * ~4-minute-wide bucket and every pre-warm fires uselessly early).
 * Gaps past an hour clamp into the last bin. Pure arithmetic —
 * deterministic by construction.
 */
class InterarrivalHistogram
{
  public:
    static constexpr Duration kBinWidth = sec(5);
    static constexpr int kBuckets = 720; // one simulated hour

    void note(Duration gap);

    std::int64_t count() const { return total; }

    /**
     * Inter-arrival gap at percentile @p p in [0, 100], interpolated
     * within the matching bucket; 0 when empty.
     */
    Duration percentileGap(double p) const;

    /**
     * Dispersion check for the out-of-bounds fallback: true when the
     * [p5, p99] window spans more than @p spreadLimit buckets, i.e. the
     * history is too scattered to predict from.
     */
    bool outOfBounds(int spreadLimit) const;

  private:
    static int bucketOf(Duration gap);
    static Duration bucketLo(int b);

    std::array<std::int64_t, kBuckets> counts{};
    std::int64_t total = 0;
};

class ControlPolicy
{
  public:
    virtual ~ControlPolicy() = default;

    virtual const char *name() const = 0;

    /** Observe one arrival for @p fn (called on the dispatch path). */
    virtual void noteArrival(const std::string &fn, Time now) = 0;

    /** Emit this tick's actions into @p out. Must not draw RNG. */
    virtual void tick(const ControlTickContext &ctx,
                      std::vector<ControlAction> &out) = 0;
};

/** `ControlPolicyKind::None`: observes nothing, emits nothing. */
class NoControlPolicy final : public ControlPolicy
{
  public:
    const char *name() const override { return "none"; }
    void noteArrival(const std::string &, Time) override {}
    void tick(const ControlTickContext &,
              std::vector<ControlAction> &) override
    {
    }
};

class NaiveKeepAlivePolicy final : public ControlPolicy
{
  public:
    const char *name() const override { return "naive-keep-alive"; }
    void noteArrival(const std::string &fn, Time now) override;
    void tick(const ControlTickContext &ctx,
              std::vector<ControlAction> &out) override;

  private:
    std::map<std::string, Time> lastArrival;
};

/**
 * Pre-warms 4 s ahead of the predicted window start and prefetches
 * chunks when the window is within 30 s. A function needs 3 recorded
 * gaps, with [p5, p99] spanning at most 6 buckets, before the
 * histogram predicts; until then it is kept warm for 120 s after each
 * use. Scale-downs are held while cold p99 exceeds 1 s.
 */
class HybridHistogramPolicy final : public ControlPolicy
{
  public:
    const char *name() const override { return "hybrid-histogram"; }
    void noteArrival(const std::string &fn, Time now) override;
    void tick(const ControlTickContext &ctx,
              std::vector<ControlAction> &out) override;

  private:
    struct FnState
    {
        InterarrivalHistogram hist;
        Time lastArrival = 0;
        bool seen = false;
        /** Prefetch issued for the current predicted window. */
        Time prefetchedFor = -1;
    };

    std::map<std::string, FnState> fns;
    std::int64_t lastColdStarts = 0;
};

/** Same pre-warm lead and prefetch horizon as HybridHistogramPolicy. */
class OraclePolicy final : public ControlPolicy
{
  public:
    const char *name() const override { return "oracle"; }

    /**
     * Feed the clairvoyant schedule: per-function arrival offsets
     * relative to the epoch passed to `setEpoch` (typically the
     * simulated time at which the workload's arrival loops start).
     */
    void setSchedule(const std::string &fn,
                     std::vector<Duration> offsets);
    void setEpoch(Time epoch);

    void noteArrival(const std::string &, Time) override {}
    void tick(const ControlTickContext &ctx,
              std::vector<ControlAction> &out) override;

  private:
    struct FnSchedule
    {
        std::vector<Duration> offsets;
        std::size_t cursor = 0;
        /** Prefetch issued for this upcoming arrival. */
        Time prefetchedFor = -1;
    };

    Time epoch = 0;
    std::map<std::string, FnSchedule> fns;
};

/** The control-policy registry, built-ins installed. */
class ControlPolicyRegistry
    : public PolicyRegistry<ControlPolicyKind, ControlPolicy>
{
  public:
    ControlPolicyRegistry();
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_CONTROL_POLICY_HH

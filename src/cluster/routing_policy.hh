/**
 * @file
 * Pluggable invocation routing for the fleet control plane. The
 * front-end's worker pick is a RoutingPolicy strategy dispatched
 * through a small registry, keyed the same way the
 * SnapshotLoader layer keys cold-start strategies. Placement matters
 * because snapshot locality does ("How Low Can You Go?",
 * arXiv:2109.13319): a policy that concentrates a function's cold
 * starts on few workers keeps their warm tiers (page cache, local SSD
 * copies of the WS file) hot, while a spreading policy trades that for
 * load balance.
 */

#ifndef VHIVE_CLUSTER_ROUTING_POLICY_HH
#define VHIVE_CLUSTER_ROUTING_POLICY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/policy_registry.hh"

namespace vhive::cluster {

/** The built-in routing strategies (registry keys). */
enum class RoutingPolicyKind
{
    /**
     * Current production behaviour: any worker holding an idle warm
     * instance wins, otherwise rotate round-robin across the fleet.
     */
    WarmFirst,

    /** Route to the worker with the fewest in-flight invocations. */
    LeastLoaded,

    /**
     * Consistent-hash / locality-aware: each function has a home
     * worker (hash of its name on the worker ring); cold starts
     * concentrate there so the artifact tiers stay hot, spilling along
     * the ring only past saturated workers.
     */
    LocalityHash,
};

/** Human-readable policy name. */
const char *routingPolicyName(RoutingPolicyKind kind);

/**
 * Read-only view of the fleet a policy may consult. Implemented by
 * ParallelFleet's mirror; kept abstract so policies are testable
 * without a fleet.
 */
class FleetView
{
  public:
    virtual ~FleetView() = default;

    virtual int workerCount() const = 0;

    /** Idle warm instances of @p name on @p worker. */
    virtual std::int64_t idleInstances(int worker,
                                       const std::string &name) const = 0;

    /** Invocations currently in flight on @p worker (all functions). */
    virtual std::int64_t inFlight(int worker) const = 0;

    /** Whether @p worker holds a local copy of @p name's artifacts. */
    virtual bool artifactsLocal(int worker,
                                const std::string &name) const = 0;

    /**
     * Fraction of @p name's content-addressed chunks resident on
     * @p worker (0..1). With chunked artifacts (DedupReap) a worker
     * that never ran the function may still hold most of its chunks —
     * pulled by other functions sharing runtime pages — making its
     * cold start nearly local. Default: artifactsLocal as 0/1, so
     * non-chunked fleets score exactly like before.
     */
    virtual double
    chunkResidency(int worker, const std::string &name) const
    {
        return artifactsLocal(worker, name) ? 1.0 : 0.0;
    }
};

/** Everything one routing decision sees. */
struct RouteContext
{
    const std::string &name;
    const FleetView &fleet;
};

/**
 * One routing strategy. Policies are per-cluster objects and may keep
 * state across decisions (e.g. the round-robin cursor); all decisions
 * must be deterministic functions of the context and that state.
 */
class RoutingPolicy
{
  public:
    virtual ~RoutingPolicy() = default;

    /** Policy name as reported in benches and diagnostics. */
    virtual const char *name() const = 0;

    /** Pick the worker index for the next invocation of ctx.name. */
    virtual int route(const RouteContext &ctx) = 0;
};

/** Warm-first + round-robin (the bit-identical default). */
class WarmFirstPolicy final : public RoutingPolicy
{
  public:
    const char *name() const override { return "warm-first"; }
    int route(const RouteContext &ctx) override;

  private:
    int rrCursor = 0;
};

/** Fewest in-flight invocations wins; ties prefer warm, then index. */
class LeastLoadedPolicy final : public RoutingPolicy
{
  public:
    const char *name() const override { return "least-loaded"; }
    int route(const RouteContext &ctx) override;
};

/** Consistent-hash home worker with ring spill past saturation. */
class LocalityHashPolicy final : public RoutingPolicy
{
  public:
    const char *name() const override { return "locality-hash"; }
    int route(const RouteContext &ctx) override;

    /**
     * Routing-score hook for chunk-aware placement: with @p weight
     * > 0, a cold start picks the unsaturated ring candidate
     * maximizing weight x resident-chunk overlap minus its ring
     * distance (normalized), instead of blindly staying home. Weight
     * 0 (default) keeps the historical home-then-spill behaviour
     * bit-identical.
     */
    void setOverlapWeight(double weight) { overlapWeight = weight; }

    /** The function's home position on the worker ring (FNV-1a via
     * util's hashName, platform-independent). */
    static int homeWorker(const std::string &name, int workers);

  private:
    /**
     * In-flight invocations at which a worker counts as saturated and
     * the cold start spills to the next ring position.
     */
    static constexpr std::int64_t kSpillInFlight = 8;

    double overlapWeight = 0.0;
};

/** The routing-policy registry, built-ins installed. */
class RoutingPolicyRegistry
    : public PolicyRegistry<RoutingPolicyKind, RoutingPolicy>
{
  public:
    RoutingPolicyRegistry();
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_ROUTING_POLICY_HH

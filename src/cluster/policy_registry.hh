/**
 * @file
 * The kind-keyed strategy registry behind both fleet extension points
 * (RoutingPolicyRegistry, ControlPolicyRegistry): built-ins installed
 * at construction, registerPolicy() swapping any of them for a custom
 * strategy — the same extension path as LoaderRegistry.
 */

#ifndef VHIVE_CLUSTER_POLICY_REGISTRY_HH
#define VHIVE_CLUSTER_POLICY_REGISTRY_HH

#include <map>
#include <memory>
#include <vector>

#include "util/logging.hh"

namespace vhive::cluster {

/** Maps each @p Kind to its @p Policy object. */
template <typename Kind, typename Policy>
class PolicyRegistry
{
  public:
    /** @p what names the policy type in fatal() messages. */
    explicit PolicyRegistry(const char *what) : what(what) {}

    PolicyRegistry(const PolicyRegistry &) = delete;
    PolicyRegistry &operator=(const PolicyRegistry &) = delete;

    /** Policy for @p kind; fatals when none is registered. */
    Policy &
    policyFor(Kind kind) const
    {
        Policy *policy = find(kind);
        if (policy == nullptr)
            fatal("no %s registered for kind %d", what,
                  static_cast<int>(kind));
        return *policy;
    }

    /** Policy for @p kind, or nullptr when none is registered. */
    Policy *
    find(Kind kind) const
    {
        auto it = policies.find(kind);
        return it == policies.end() ? nullptr : it->second.get();
    }

    /** Install (or replace) the policy behind @p kind. */
    void
    registerPolicy(Kind kind, std::unique_ptr<Policy> policy)
    {
        VHIVE_ASSERT(policy != nullptr);
        policies[kind] = std::move(policy);
    }

    /** All registered kinds, in enum order. */
    std::vector<Kind>
    kinds() const
    {
        std::vector<Kind> out;
        out.reserve(policies.size());
        for (const auto &entry : policies)
            out.push_back(entry.first);
        return out;
    }

  private:
    const char *what;
    std::map<Kind, std::unique_ptr<Policy>> policies;
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_POLICY_REGISTRY_HH

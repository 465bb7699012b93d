#include "cluster/azure_workload.hh"

#include <cmath>

#include "func/profile.hh"
#include "util/logging.hh"

namespace vhive::cluster {

func::FunctionProfile
mixProfile(const std::vector<func::FunctionClass> &class_mix,
           std::uint64_t seed, int i, const std::string &prefix)
{
    auto slot = static_cast<size_t>(i);
    func::FunctionProfile p =
        class_mix.empty()
            ? func::functionBench()[static_cast<size_t>(
                  kMixProfilePool[slot % kMixProfilePool.size()])]
            : func::makeClassProfile(class_mix[slot % class_mix.size()],
                                     seed, i);
    p.name = prefix + "_" + std::to_string(i) + "_" + p.name;
    return p;
}

std::vector<AzureMixEntry>
synthesizeAzureMix(const AzureWorkloadConfig &cfg)
{
    VHIVE_ASSERT(cfg.functions >= 1);
    VHIVE_ASSERT(cfg.minInterarrival > 0 &&
                 cfg.maxInterarrival >= cfg.minInterarrival);

    Rng rng(cfg.seed, "azure-workload");
    double log_min =
        std::log(static_cast<double>(cfg.minInterarrival));
    double log_max =
        std::log(static_cast<double>(cfg.maxInterarrival));
    std::vector<AzureMixEntry> mix;
    mix.reserve(static_cast<size_t>(cfg.functions));
    for (int i = 0; i < cfg.functions; ++i) {
        func::FunctionProfile p =
            mixProfile(cfg.classMix, cfg.seed, i, "az");
        // Log-uniform inter-arrival: most functions end up sporadic,
        // matching the Azure study's long tail.
        double u = rng.uniform();
        mix.push_back(AzureMixEntry{
            std::move(p),
            static_cast<Duration>(
                std::exp(log_min + u * (log_max - log_min)))});
    }
    return mix;
}

} // namespace vhive::cluster

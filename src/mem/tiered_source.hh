/**
 * @file
 * TieredPageSource: an ordered fallback chain of PageSources modelling
 * the snapshot-byte storage hierarchy the paper's Sec. 6/7 analysis
 * turns on — host page cache, local SSD, disaggregated object store.
 * Each read probes tiers top-down and is served by the first tier that
 * holds the range; bytes served by a lower tier are admitted into the
 * tiers above (warm-tier admission), so a fleet-fresh worker pays the
 * remote path once and local paths afterwards.
 *
 * Per-tier hit/miss/byte/latency accounting is kept per source and
 * surfaced through PageFetchStats, making cache/storage tiering a
 * measurable Fig. 7-style design axis ("How Low Can You Go?",
 * arXiv:2109.13319, argues cold-start floors live exactly here).
 */

#ifndef VHIVE_MEM_TIERED_SOURCE_HH
#define VHIVE_MEM_TIERED_SOURCE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mem/page_source.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive::mem {

/**
 * A fallback chain of PageSources with warm-tier admission. Reads are
 * served by the highest (first-added) tier containing the range; every
 * probed-but-missing tier records a miss, the serving tier records a
 * hit, and admit hooks of the tiers above the serving one populate
 * them with the fetched range.
 */
class TieredPageSource final : public PageSource
{
  public:
    /** One tier of the chain. */
    struct Tier
    {
        /** Label reported in stats and bench tables. */
        std::string label;

        /** The source serving reads when this tier holds the range. */
        std::unique_ptr<PageSource> source;

        /**
         * Residency test for a range; a null predicate means the tier
         * always holds it (the chain's backstop, e.g. the remote
         * store).
         */
        std::function<bool(Bytes offset, Bytes len)> contains;

        /**
         * Populates this tier with a range served by a lower tier
         * (e.g. a buffered write landing remote bytes in the page
         * cache with asynchronous writeback). Null: not admittable.
         */
        std::function<sim::Task<void>(Bytes offset, Bytes len)> admit;

        /**
         * Notified (synchronously, before the source read) whenever
         * this tier serves a range — the recency signal a byte-budget
         * tracker needs. Null: no one is watching.
         */
        std::function<void(Bytes offset, Bytes len)> onServe;
    };

    explicit TieredPageSource(sim::Simulation &sim) : sim(sim) {}

    /** Append @p tier to the chain (probed after all earlier tiers). */
    void addTier(Tier tier);

    /**
     * Admission threshold: a range served below the admittable tiers
     * is admitted only on its @p n'th such serve (ReapOptions::
     * admitAfterHits). 1 — the default — admits on first touch, the
     * historical behaviour; higher values keep one-shot ranges out of
     * the warm tiers at the cost of paying the lower tier again.
     * Serves are counted per page, so the threshold is independent of
     * the fetch's window shape (fixed and adaptive windows cut the
     * range differently across cold starts); a range is admitted only
     * once every page it covers has been served from below N times.
     * @p counts, when non-null, holds the per-page serve counters —
     * chains are rebuilt per cold start, so callers that want the
     * threshold to span cold starts must pass persistent storage
     * (e.g. hung off the function state); null uses a chain-local
     * map.
     */
    void setAdmitAfterHits(int n,
                           std::map<Bytes, int> *counts = nullptr);

    /**
     * Chain rows in tier order, followed by any rows the tier sources
     * themselves report (e.g. a chunked backstop's cache/remote
     * split). Plain file/object sources report none, so for the
     * classic chains this is exactly the per-tier rows.
     */
    std::vector<TierStats> tierStats() const override;

    const char *name() const override { return "tiered"; }
    sim::Task<void> read(Bytes offset, Bytes len) override;

  private:
    sim::Simulation &sim;
    std::vector<Tier> tiers;
    std::vector<TierStats> _stats;
    int admitAfterHits = 1;

    /** Lower-tier serves seen per range start (admission gating);
     * points at ownLowServes unless external storage was supplied. */
    std::map<Bytes, int> *lowServes = nullptr;
    std::map<Bytes, int> ownLowServes;
};

} // namespace vhive::mem

#endif // VHIVE_MEM_TIERED_SOURCE_HH

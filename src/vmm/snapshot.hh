/**
 * @file
 * On-disk artifacts of a MicroVM snapshot (Sec. 2.3): the serialized
 * VMM/device state file and the full guest-memory image. Loading is
 * two-phase — deserialize the VMM state, then map the memory file for
 * lazy paging (or register it with userfaultfd for REAP).
 *
 * Snapshot artifacts can additionally be described as content-addressed
 * chunk manifests (buildSnapshotManifests): the record phase emits one
 * manifest per artifact so the transfer path can move deduplicated,
 * compressed chunks instead of opaque blobs. The chunk content model is
 * deterministic — a configurable fraction of each artifact's chunks is
 * drawn from a fleet-wide shared runtime-page pool ("How Low Can You
 * Go?", arXiv:2109.13319: guest kernel, agents and language runtime
 * pages are identical across functions), the rest is unique to the
 * function.
 */

#ifndef VHIVE_VMM_SNAPSHOT_HH
#define VHIVE_VMM_SNAPSHOT_HH

#include <string>

#include "storage/chunk_store.hh"
#include "storage/file_store.hh"
#include "util/units.hh"

namespace vhive::vmm {

/** Handles to a function's snapshot files on the snapshot store. */
struct SnapshotFiles
{
    storage::FileId vmmState = storage::kInvalidFile;
    storage::FileId guestMemory = storage::kInvalidFile;

    bool
    valid() const
    {
        return vmmState != storage::kInvalidFile &&
               guestMemory != storage::kInvalidFile;
    }
};

/** Cost/size constants of the hypervisor lifecycle. */
struct VmmParams
{
    /** Spawning the hypervisor process + API socket round trip. */
    Duration spawnProcess = msec(8);

    /** Deserializing VMM + emulated device state (CPU work). */
    Duration restoreVmmState = msec(14);

    /** Resuming vCPUs after restore. */
    Duration resumeVcpus = msec(2);

    /** Serializing VMM + device state when snapshotting. */
    Duration serializeVmmState = msec(10);

    /** Pausing the VM before snapshotting. */
    Duration pauseVm = msec(2);

    /** Creating a fresh VM (pre-boot device setup + rootfs mount). */
    Duration createVm = msec(120);

    /** Size of the serialized VMM/device state on disk. */
    Bytes vmmStateSize = 2 * kMiB;

    /** Hypervisor + emulation layer resident overhead (~3 MB). */
    Bytes vmmOverhead = 3 * kMiB;
};

/**
 * How snapshot artifacts are split into content-addressed chunks and
 * what their content looks like to the dedup/compression model.
 */
struct ChunkingModel
{
    /** Fixed chunk size (only an artifact's final chunk is shorter). */
    Bytes chunkBytes = 64 * kKiB;

    /** Whether chunks travel compressed (storedBytes < rawBytes). */
    bool compression = true;

    /**
     * Mean compressed/raw size ratio. Individual chunks vary
     * deterministically around the mean (content entropy differs), so
     * equal hashes always imply equal stored sizes.
     */
    double compressRatio = 0.55;

    /**
     * Fraction of full-size chunks whose content is drawn from the
     * fleet-shared runtime-page pool (identical across functions:
     * guest kernel, agents, runtime). The rest — and every partial
     * tail chunk — is unique to the function.
     */
    double crossFunctionDupRatio = 0.35;

    /**
     * Byte size of the shared runtime pool duplicates draw from (the
     * guest kernel + agents + language-runtime image every function's
     * snapshot carries). Expressed in bytes so the dedup opportunity
     * is chunk-size-invariant. Draws are skewed toward the pool's head
     * (hot kernel/runtime pages every function touches), so distinct
     * functions' shared chunks overlap heavily — the effect dedup
     * exploits.
     */
    Bytes sharedPoolBytes = 24 * kMiB;

    /**
     * Record version of the artifact content (the function's
     * re-record count + 1). Each version >= 2 independently rewrites
     * a rerecordChurn fraction of the function-unique chunks — their
     * content identity changes, everything else keeps its hash — so a
     * re-recorded manifest shares exactly its un-churned chunks with
     * the previous version (the delta-staging opportunity).
     * Shared-pool chunks never churn: the runtime image is immutable.
     * Version <= 1 emits manifests bit-identical to builds that never
     * re-record.
     */
    std::int64_t recordVersion = 1;

    /** Per-version churn probability of a unique chunk. */
    double rerecordChurn = 0.25;
};

/** The chunk recipes for one function's transferable artifacts. */
struct SnapshotManifests
{
    storage::ChunkManifest vmmState;
    storage::ChunkManifest ws;

    Bytes
    rawBytes() const
    {
        return vmmState.rawBytes() + ws.rawBytes();
    }

    Bytes
    storedBytes() const
    {
        return vmmState.storedBytes() + ws.storedBytes();
    }
};

/**
 * Split an artifact of @p raw_bytes into a deterministic chunk
 * manifest under @p model. Chunk hashes are stable functions of
 * (@p artifact, chunk index, model) — shared-pool chunks hash
 * identically across artifacts and functions, which is what makes
 * cross-function dedup in a ChunkStore real rather than assumed.
 */
storage::ChunkManifest chunkArtifact(const std::string &artifact,
                                     Bytes raw_bytes,
                                     const ChunkingModel &model);

/**
 * Manifests for both transferable snapshot artifacts of @p function:
 * the serialized VMM/device state and the compact WS file. Emitted at
 * record time (the WS size is known only then).
 */
SnapshotManifests buildSnapshotManifests(const std::string &function,
                                         Bytes vmm_state_bytes,
                                         Bytes ws_bytes,
                                         const ChunkingModel &model);

} // namespace vhive::vmm

#endif // VHIVE_VMM_SNAPSHOT_HH

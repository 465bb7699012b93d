#include "core/function_state.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vhive::core {

storage::FileId
FunctionState::ensureRootfs(storage::FileStore &fs)
{
    if (rootfs == storage::kInvalidFile)
        rootfs = fs.createFile(profile.name + "/rootfs",
                               profile.rootfsImage);
    return rootfs;
}

std::pair<Bytes, Bytes>
FunctionState::ensureArtifactFiles(storage::FileStore &fs)
{
    Bytes ws_bytes = std::max<Bytes>(record.wsFileBytes(), kPageSize);
    Bytes trace_bytes =
        std::max<Bytes>(TraceFileCodec::encodedSize(record), 1);
    if (wsFile == storage::kInvalidFile) {
        wsFile = fs.createFile(profile.name + "/ws", ws_bytes);
        traceFile =
            fs.createFile(profile.name + "/trace", trace_bytes);
    } else {
        fs.truncate(wsFile, ws_bytes);
        fs.truncate(traceFile, trace_bytes);
    }
    return {ws_bytes, trace_bytes};
}

const vmm::SnapshotManifests &
ensureManifests(FunctionState &st, const ReapOptions &reap,
                const vmm::VmmParams &vmm)
{
    VHIVE_ASSERT(st.recorded);
    if (!st.manifests) {
        vmm::ChunkingModel model;
        model.chunkBytes = reap.chunkBytes;
        model.compression = reap.chunkCompression;
        model.crossFunctionDupRatio = reap.chunkDupRatio;
        model.recordVersion = std::max<std::int64_t>(st.recordVersion, 1);
        // Same minimum sizing as ensureArtifactFiles so the chunked
        // and blob transfer paths describe identical artifact bytes.
        Bytes ws_bytes =
            std::max<Bytes>(st.record.wsFileBytes(), kPageSize);
        st.manifests = std::make_shared<const vmm::SnapshotManifests>(
            vmm::buildSnapshotManifests(st.profile.name,
                                        vmm.vmmStateSize, ws_bytes,
                                        model));
    }
    return *st.manifests;
}

void
FunctionState::evictLocalArtifacts(storage::FileStore &fs)
{
    artifactsLocal = false;
    if (wsFile != storage::kInvalidFile)
        fs.dropFileCaches(wsFile);
    if (traceFile != storage::kInvalidFile)
        fs.dropFileCaches(traceFile);
}

} // namespace vhive::core

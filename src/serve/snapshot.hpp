// somrm/serve/snapshot.hpp
//
// Sweep-cache persistence: serializes retained sweeps together with their
// cache keys so a warm SweepCache survives process restarts — after a
// reload, the first query against a persisted (model, solve key, weights)
// combination is a cache HIT and runs no sweep at all.
//
// Format (version 2, fixed-width little-style host integers, cross-endian
// loads rejected by the probe word):
//
//   magic    "SOMRMSWP"                         8 bytes
//   version  u32  kSnapshotFormatVersion
//   endian   u32  0x01020304 as written by the saving host
//   count    u64  number of cache entries
//   entry*   key (u64 length + bytes), then the core::RetainedSweep
//            payload: times / scalars / flags / truncation_points /
//            error_bounds / accumulator panels (u64 rows, u64 width,
//            rows*width doubles) / the sweep-phase SolverStats
//
// Version 2 dropped the SolverStats storage, padding_ratio and
// chunk_occupancy fields (and the solve key no longer hashes the removed
// kernel/storage options); version-1 files fail with "format version
// mismatch".
//   check    u64  FNV-1a-64 over every byte before it
//
// Every double travels by bit pattern, so the round trip is bit-exact:
// core::bit_identical(saved, loaded) holds for each entry, and a finalize
// against the reloaded sweep produces the same bits as against the
// original. Writes use the JsonWriter idiom — temp file in the target
// directory, then std::rename — so a concurrent reader (or a crash
// mid-save) never observes a half-written snapshot.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/solve_session.hpp"

namespace somrm::serve {

/// Current snapshot format version. Bumped on any layout change; a reader
/// refuses other versions rather than guessing at field offsets.
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

/// Snapshot save/load failure. The what() string names the reason: "bad
/// magic", "format version mismatch", "endianness mismatch", "checksum
/// mismatch", "truncated", or an I/O-flavoured message with the path.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& message)
      : std::runtime_error("snapshot: " + message) {}
};

/// Serializes every entry of @p cache (most recently used first) to
/// @p path atomically. Returns the number of entries written. Throws
/// SnapshotError when the file cannot be created or written.
std::size_t save_snapshot(const core::SweepCache& cache,
                          const std::string& path);

/// Loads a snapshot into @p cache via SweepCache::insert: keys already
/// resident win over the snapshot's, hit/miss counters do not move, and
/// entries are inserted least-recently-used first so the saved recency
/// order is reproduced (the byte budget applies as usual — a snapshot
/// larger than the budget keeps only its MRU tail). A missing file is a
/// cold start, not an error: returns 0. Any other defect — bad magic,
/// version or endianness mismatch, checksum failure, truncation — throws
/// SnapshotError. Returns the number of entries actually inserted.
std::size_t load_snapshot(core::SweepCache& cache, const std::string& path);

}  // namespace somrm::serve

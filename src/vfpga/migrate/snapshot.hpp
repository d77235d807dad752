// Crash-consistent snapshot container for the VirtIO testbed.
//
// A snapshot is a self-describing binary image:
//
//   magic "VFPGASNP" | version u32
//   section {id, len} kFingerprint — TestbedOptions compatibility digest
//   section {id, len} kState       — every layer's dynamic state
//   section {id, len} kMemory      — resident host-memory pages
//   crc32 over all preceding bytes
//
// restore_snapshot validates magic, version, checksum, the options
// fingerprint and the presence of every section BEFORE mutating
// anything; a version-skewed, truncated or bit-flipped image is
// rejected with the testbed untouched. A structural failure discovered
// mid-apply (a corrupt count that passed the CRC because the producer
// itself was broken) cannot be undone, so it latches DEVICE_NEEDS_RESET
// via the controller's device_error path — never undefined behaviour.
#pragma once

#include "vfpga/common/types.hpp"

namespace vfpga::core {
class VirtioNetTestbed;
struct TestbedOptions;
}  // namespace vfpga::core

namespace vfpga::migrate {

inline constexpr u8 kSnapshotMagic[8] = {'V', 'F', 'P', 'G',
                                         'A', 'S', 'N', 'P'};
inline constexpr u32 kSnapshotVersion = 11;

/// Section ids, in on-disk order.
inline constexpr u32 kSectionFingerprint = 1;
inline constexpr u32 kSectionState = 2;
inline constexpr u32 kSectionMemory = 3;

enum class RestoreStatus : u8 {
  kOk = 0,
  kTruncated,     ///< image shorter than the fixed header + trailer
  kBadMagic,      ///< not a snapshot
  kBadVersion,    ///< produced by an incompatible format revision
  kBadChecksum,   ///< trailing CRC32 mismatch (bit rot in transit)
  kMalformed,     ///< structure invalid despite a good checksum
  kIncompatible,  ///< restore target built from different TestbedOptions
};

[[nodiscard]] const char* restore_status_name(RestoreStatus status);

/// Serialize the testbed. Call testbed.quiesce() first for a snapshot
/// that restores to bit-identical forward behaviour; without it,
/// coalesced TX kicks are still captured faithfully but remain pending
/// across the restore.
[[nodiscard]] Bytes save_snapshot(core::VirtioNetTestbed& testbed);

/// Validate `image` and apply it to `testbed`, which must be freshly
/// constructed from the same TestbedOptions as the snapshot source (the
/// fingerprint section enforces this). Returns kOk on success; on any
/// pre-apply validation failure the testbed is untouched; on a mid-apply
/// structural failure the device is error-latched (DEVICE_NEEDS_RESET)
/// and kMalformed is returned.
RestoreStatus restore_snapshot(core::VirtioNetTestbed& testbed,
                               ConstByteSpan image);

}  // namespace vfpga::migrate

#include "vfpga/migrate/snapshot.hpp"

#include <algorithm>
#include <array>

#include "vfpga/core/testbed.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::migrate {

namespace {

constexpr std::size_t kHeaderBytes = 8 + 4;  // magic + version
constexpr std::size_t kTrailerBytes = 4;     // crc32

/// Every settable option that shapes the deterministic bring-up. Source
/// and target both encode through this; byte inequality means the target
/// testbed would have laid out rings/pools differently and the snapshot
/// cannot apply. Uses the post-normalization options (testbed.options()).
/// Constants need no entry.
void encode_fingerprint(const core::TestbedOptions& o, StateWriter& w) {
  w.put_u64(o.seed);
  w.put_bool(o.use_packed_rings);
  w.put_bool(o.net.offer_csum);
  w.put_bool(o.controller.policy.batched_chain_fetch);
  w.put_bool(o.controller.policy.trust_cached_credits);
  w.put_bool(o.controller.policy.offer_packed);
  w.put_u16(o.controller.max_queue_size);
  w.put_u8(static_cast<u8>(o.datapath.tx_path));
  w.put_u64(o.fault.seed);
  for (double rate : o.fault.rate) {
    w.put_f64(rate);
  }
  w.put_bool(o.attach_blk);
  if (o.attach_blk) {
    w.put_u64(o.blk.capacity_sectors);
    w.put_u32(o.blk.size_max);
    w.put_u32(o.blk.seg_max);
    w.put_u16(o.blk.num_queues);
    w.put_u16(o.blk_driver.requested_queues);
    w.put_u16(o.blk_driver.queue_depth);
    w.put_u32(o.blk_driver.max_io_bytes);
  }
}

}  // namespace

const char* restore_status_name(RestoreStatus status) {
  switch (status) {
    case RestoreStatus::kOk:
      return "ok";
    case RestoreStatus::kTruncated:
      return "truncated";
    case RestoreStatus::kBadMagic:
      return "bad-magic";
    case RestoreStatus::kBadVersion:
      return "bad-version";
    case RestoreStatus::kBadChecksum:
      return "bad-checksum";
    case RestoreStatus::kMalformed:
      return "malformed";
    case RestoreStatus::kIncompatible:
      return "incompatible";
  }
  return "unknown";
}

Bytes save_snapshot(core::VirtioNetTestbed& testbed) {
  StateWriter w;
  for (u8 c : kSnapshotMagic) {
    w.put_u8(c);
  }
  w.put_u32(kSnapshotVersion);

  w.begin_section(kSectionFingerprint);
  encode_fingerprint(testbed.options(), w);
  w.end_section();

  w.begin_section(kSectionState);
  StateIo io{w};
  testbed.transfer(io);
  w.end_section();

  w.begin_section(kSectionMemory);
  mem::HostMemory& memory = testbed.memory();
  const std::vector<u64> pages = memory.resident_page_indices();
  w.put_u64(pages.size());
  std::array<u8, mem::HostMemory::kPageSize> page{};
  for (u64 index : pages) {
    w.put_u64(index);
    memory.read_page(index, page);
    w.put_bytes(page);
  }
  w.end_section();

  Bytes image = w.take();
  const u32 crc = crc32(image);
  for (int shift = 0; shift < 32; shift += 8) {
    image.push_back(static_cast<u8>(crc >> shift));
  }
  return image;
}

RestoreStatus restore_snapshot(core::VirtioNetTestbed& testbed,
                               ConstByteSpan image) {
  if (image.size() < kHeaderBytes + kTrailerBytes) {
    return RestoreStatus::kTruncated;
  }
  if (!std::equal(std::begin(kSnapshotMagic), std::end(kSnapshotMagic),
                  image.begin())) {
    return RestoreStatus::kBadMagic;
  }
  const ConstByteSpan body = image.first(image.size() - kTrailerBytes);
  StateReader header{body.subspan(8)};
  const u32 version = header.get_u32();
  if (version != kSnapshotVersion) {
    return RestoreStatus::kBadVersion;
  }

  StateReader trailer{image.subspan(image.size() - kTrailerBytes)};
  if (crc32(body) != trailer.get_u32()) {
    return RestoreStatus::kBadChecksum;
  }

  StateReader r{body.subspan(kHeaderBytes)};

  // Compatibility gate — no mutation yet, so a mismatched image leaves
  // the target fully usable.
  if (!r.enter_section(kSectionFingerprint)) {
    return RestoreStatus::kMalformed;
  }
  StateWriter fp;
  encode_fingerprint(testbed.options(), fp);
  const Bytes& expected = fp.buffer();
  if (r.remaining() != expected.size()) {
    return RestoreStatus::kIncompatible;
  }
  Bytes actual(expected.size());
  r.get_bytes(actual);
  if (r.failed() || actual != expected) {
    return RestoreStatus::kIncompatible;
  }
  r.exit_section();

  if (!r.enter_section(kSectionState)) {
    return RestoreStatus::kMalformed;
  }
  // The state names ring areas in host memory, which must be resident
  // when it is applied: read the memory section first.
  StateReader state{body.subspan(kHeaderBytes + r.position(), r.remaining())};
  r.exit_section();

  constexpr u64 kPerPage = 8 + mem::HostMemory::kPageSize;
  if (!r.enter_section(kSectionMemory)) {
    return RestoreStatus::kMalformed;
  }
  const u64 count = r.get_u64();
  if (r.failed() || count > r.remaining() / kPerPage) {
    return RestoreStatus::kMalformed;
  }

  // Mutation begins here: a structural failure past this point cannot be
  // rolled back, so it latches DEVICE_NEEDS_RESET instead.
  std::array<u8, mem::HostMemory::kPageSize> page{};
  for (u64 i = 0; i < count; ++i) {
    const u64 index = r.get_u64();
    r.get_bytes(page);
    testbed.memory().write_page(index, page);
  }
  r.exit_section();

  StateIo io{state};
  testbed.transfer(io);
  if (state.failed()) {
    testbed.device().device_error(testbed.thread().now());
    return RestoreStatus::kMalformed;
  }
  return RestoreStatus::kOk;
}

}  // namespace vfpga::migrate

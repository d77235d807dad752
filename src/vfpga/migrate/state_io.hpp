// Binary state serialization for device/driver snapshots.
//
// StateWriter/StateReader are the byte-level substrate of the snapshot
// format (migrate/snapshot.hpp): little-endian primitives, length-
// prefixed blobs, and nestable {id, length} sections whose bounds the
// reader enforces on every access. A reader never trusts the input: any
// out-of-bounds read, short blob, or section overrun latches a sticky
// failure flag and yields zeros instead of undefined behaviour — the
// property the corrupted-snapshot rejection path is built on.
//
// StateIo is what each class's snapshot layout is written against: one
// transfer(StateIo&) per class lists its fields once, and the same list
// saves them (over a StateWriter) or restores them (over a StateReader).
#pragma once

#include <bit>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <vector>

#include "vfpga/common/types.hpp"
#include "vfpga/sim/time.hpp"
#include "vfpga/virtio/features.hpp"

namespace vfpga::migrate {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
/// guarding a snapshot against bit rot in transit.
[[nodiscard]] u32 crc32(ConstByteSpan data, u32 seed = 0);

class StateWriter {
 public:
  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v) {
    put_u8(static_cast<u8>(v));
    put_u8(static_cast<u8>(v >> 8));
  }
  void put_u32(u32 v) {
    put_u16(static_cast<u16>(v));
    put_u16(static_cast<u16>(v >> 16));
  }
  void put_u64(u64 v) {
    put_u32(static_cast<u32>(v));
    put_u32(static_cast<u32>(v >> 32));
  }
  void put_i64(i64 v) { put_u64(static_cast<u64>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_f64(double v) { put_u64(std::bit_cast<u64>(v)); }
  void put_time(sim::SimTime t) { put_i64(t.picos()); }
  void put_duration(sim::Duration d) { put_i64(d.picos()); }

  /// Raw bytes, no length prefix (fixed-size fields like pages).
  void put_bytes(ConstByteSpan data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  /// u64 length prefix + bytes (variable-size fields).
  void put_blob(ConstByteSpan data) {
    put_u64(data.size());
    put_bytes(data);
  }

  /// Open a section: {id: u32, length: u64} with the length back-patched
  /// by end_section(). Sections nest.
  void begin_section(u32 id);
  void end_section();

  [[nodiscard]] const Bytes& buffer() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
  std::vector<std::size_t> open_;  ///< offsets of unpatched length fields
};

class StateReader {
 public:
  explicit StateReader(ConstByteSpan data) : data_(data) {}

  u8 get_u8() { return static_cast<u8>(get_le(1)); }
  u16 get_u16() { return static_cast<u16>(get_le(2)); }
  u32 get_u32() { return static_cast<u32>(get_le(4)); }
  u64 get_u64() { return get_le(8); }
  i64 get_i64() { return static_cast<i64>(get_u64()); }
  bool get_bool() { return get_u8() != 0; }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  sim::SimTime get_time() { return sim::SimTime{get_i64()}; }
  sim::Duration get_duration() { return sim::Duration{get_i64()}; }

  void get_bytes(ByteSpan out);
  Bytes get_blob();

  /// Enter the next section; fails (and returns false) unless its id is
  /// `expected_id` and its declared length fits in the enclosing bounds.
  /// All subsequent reads are clamped to the section's end until
  /// exit_section().
  bool enter_section(u32 expected_id);
  /// Leave the innermost section, skipping any unread remainder. Reading
  /// PAST the declared end has already failed by this point.
  void exit_section();

  /// Mark the stream invalid from caller-side validation (e.g. a
  /// mismatched structural parameter). Sticky.
  void fail() { failed_ = true; }
  [[nodiscard]] bool failed() const { return failed_; }

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return limit() - pos_; }

 private:
  [[nodiscard]] std::size_t limit() const {
    return bounds_.empty() ? data_.size() : bounds_.back();
  }
  [[nodiscard]] bool take(std::size_t n);
  /// An n-byte little-endian value (n <= 8), one bounds check per value.
  u64 get_le(std::size_t n);

  ConstByteSpan data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::vector<std::size_t> bounds_;  ///< section end offsets, innermost last
};

/// One field list for both directions. Every call writes its argument
/// (saving) or reads the next value back into it (loading). The checks
/// — expect, index, count — hold only for what is read; a failed check
/// fails the reader, which then yields zeros until the caller gives up.
class StateIo {
 public:
  explicit StateIo(StateWriter& w) : w_(&w) {}
  explicit StateIo(StateReader& r) : r_(&r) {}

  [[nodiscard]] bool loading() const { return r_ != nullptr; }
  /// Loading only: a read or a check has failed. Sticky.
  [[nodiscard]] bool failed() const { return r_ != nullptr && r_->failed(); }
  /// Fail the reader (caller-side validation); no-op while saving.
  void fail() {
    if (r_ != nullptr) {
      r_->fail();
    }
  }

  void u8(vfpga::u8& v) { field(v); }
  void u16(vfpga::u16& v) { field(v); }
  void u32(vfpga::u32& v) { field(v); }
  void u64(vfpga::u64& v) { field(v); }
  void boolean(bool& v) { field(v); }
  void f64(double& v) { field(v); }
  void time(sim::SimTime& v) { field(v); }
  void duration(sim::Duration& v) { field(v); }
  void features(virtio::FeatureSet& v) {
    vfpga::u64 bits = v.bits();
    field(bits);
    v = virtio::FeatureSet{bits};
  }
  /// Raw bytes, no length prefix (fixed-size fields).
  void bytes(ByteSpan data) {
    if (r_ != nullptr) {
      r_->get_bytes(data);
    } else {
      w_->put_bytes(data);
    }
  }
  /// u64 length prefix + bytes (variable-size fields).
  void blob(Bytes& data) {
    if (r_ != nullptr) {
      data = r_->get_blob();
    } else {
      w_->put_blob(data);
    }
  }
  /// A presence flag, then the value (T{} when absent).
  template <class T>
  void optional(std::optional<T>& v) {
    bool has = v.has_value();
    T value = v.value_or(T{});
    field(has);
    field(value);
    if (loading()) {
      v = has ? std::optional<T>{value} : std::nullopt;
    }
  }

  /// A structural value the target already has (a queue size, a table
  /// length): written as a T; the reader fails unless it reads it back.
  template <class T>
  void expect(std::type_identity_t<T> v) {
    T got = v;
    field(got);
    if (got != v) {
      fail();
    }
  }

  /// A value used as a table index: the reader fails when v >= bound.
  template <class T>
  void index(T& v, std::size_t bound) {
    field(v);
    if (v >= bound) {
      fail();
    }
  }

  /// The element count of a length-prefixed sequence, written as a
  /// Count. Returns `n` when saving and the count read when loading;
  /// the reader fails (and 0 is returned) when the count exceeds `max`
  /// or the bytes left in the stream — every element takes at least
  /// one — so a corrupt count can never size an allocation beyond what
  /// the image holds. Callers size their container to the result.
  template <class Count>
  std::size_t count(std::size_t n, std::size_t max = SIZE_MAX) {
    Count wire = static_cast<Count>(n);
    field(wire);
    if (r_ == nullptr) {
      return n;
    }
    if (wire > max || wire > r_->remaining()) {
      r_->fail();
      return 0;
    }
    return wire;
  }

 private:
  template <class T>
  void field(T& v) {
    if (r_ != nullptr) {
      get(v);
    } else {
      put(v);
    }
  }
  void put(vfpga::u8 v) { w_->put_u8(v); }
  void put(vfpga::u16 v) { w_->put_u16(v); }
  void put(vfpga::u32 v) { w_->put_u32(v); }
  void put(vfpga::u64 v) { w_->put_u64(v); }
  void put(bool v) { w_->put_bool(v); }
  void put(double v) { w_->put_f64(v); }
  void put(sim::SimTime v) { w_->put_time(v); }
  void put(sim::Duration v) { w_->put_duration(v); }
  void get(vfpga::u8& v) { v = r_->get_u8(); }
  void get(vfpga::u16& v) { v = r_->get_u16(); }
  void get(vfpga::u32& v) { v = r_->get_u32(); }
  void get(vfpga::u64& v) { v = r_->get_u64(); }
  void get(bool& v) { v = r_->get_bool(); }
  void get(double& v) { v = r_->get_f64(); }
  void get(sim::SimTime& v) { v = r_->get_time(); }
  void get(sim::Duration& v) { v = r_->get_duration(); }

  StateWriter* w_ = nullptr;
  StateReader* r_ = nullptr;
};

}  // namespace vfpga::migrate

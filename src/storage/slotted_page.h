#ifndef HASHJOIN_STORAGE_SLOTTED_PAGE_H_
#define HASHJOIN_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <cstring>

#include "util/logging.h"

namespace hashjoin {

/// Default page size; matches the paper's simulated machine (8KB pages).
inline constexpr uint32_t kDefaultPageSize = 8 * 1024;

/// A slotted page view over a caller-owned, page-sized byte buffer.
///
/// Layout:
///   [PageHeader][tuple data grows ->]   ...   [<- slot array grows]
///
/// Each slot records the tuple's offset/length *and a 4-byte hash code*.
/// Storing hash codes in the slot area of intermediate partitions is the
/// paper's §7.1 optimization: the partition phase computes each join
/// key's hash code once, memoizes it in the slot, and the join phase
/// reuses it instead of re-reading the key and re-hashing. The join
/// kernels read slots sequentially (cache friendly), then jump to tuple
/// bodies.
class SlottedPage {
 public:
  struct PageHeader {
    uint16_t slot_count;
    uint16_t free_offset;  // start of unused space (grows up)
    uint32_t page_size;
    /// Zero (Format clears it). Keeps the header at 12 bytes, so page
    /// capacities and tuple offsets, and with them the simulated
    /// figures, stay where they were measured.
    uint32_t padding;
  };

  struct Slot {
    uint16_t offset;
    uint16_t length;
    uint32_t hash_code;  // memoized hash of the join key (may be 0)
  };

  SlottedPage() = default;
  explicit SlottedPage(void* buffer) : base_(static_cast<uint8_t*>(buffer)) {}

  /// Formats an empty page of `page_size` bytes in `buffer`.
  static SlottedPage Format(void* buffer, uint32_t page_size);

  /// Attaches to an already formatted page.
  static SlottedPage Attach(void* buffer) { return SlottedPage(buffer); }

  // The per-tuple accessors below are defined in this header: every
  // partition, build and probe loop calls them once per tuple.

  /// Appends a tuple; returns the slot index, or -1 if the page is full.
  int AddTuple(const void* data, uint16_t length, uint32_t hash_code = 0) {
    int idx = -1;
    uint8_t* dst = AllocTuple(length, hash_code, &idx);
    if (dst == nullptr) return -1;
    std::memcpy(dst, data, length);
    return idx;
  }

  /// Reserves space for a tuple of `length` bytes and returns a writable
  /// pointer to it (or nullptr if full). Lets the partition kernels copy
  /// field-by-field without a staging buffer.
  uint8_t* AllocTuple(uint16_t length, uint32_t hash_code, int* slot_index) {
    if (FreeSpace() < length) return nullptr;
    PageHeader* h = mutable_header();
    const int idx = h->slot_count;
    Slot* slot = GetMutableSlot(idx);
    slot->offset = h->free_offset;
    slot->length = length;
    slot->hash_code = hash_code;
    uint8_t* dst = base_ + h->free_offset;
    h->free_offset = static_cast<uint16_t>(h->free_offset + length);
    h->slot_count = static_cast<uint16_t>(h->slot_count + 1);
    if (slot_index != nullptr) *slot_index = idx;
    return dst;
  }

  uint16_t slot_count() const { return header()->slot_count; }
  uint32_t page_size() const { return header()->page_size; }

  const uint8_t* GetTuple(int slot, uint16_t* length) const {
    HJ_DCHECK(slot >= 0 && slot < header()->slot_count);
    const Slot* s = GetSlot(slot);
    if (length != nullptr) *length = s->length;
    return base_ + s->offset;
  }
  uint8_t* GetMutableTuple(int slot, uint16_t* length) {
    return const_cast<uint8_t*>(GetTuple(slot, length));
  }
  uint32_t GetHashCode(int slot) const { return GetSlot(slot)->hash_code; }
  void SetHashCode(int slot, uint32_t code) {
    GetMutableSlot(slot)->hash_code = code;
  }

  /// Zeroes the unused bytes between the last tuple and the slot array,
  /// so that the page's bytes, and its checksum, depend on its tuples
  /// alone and not on what the buffer held before.
  void ZeroUnusedBytes() {
    const PageHeader* h = header();
    const uint32_t slots_begin =
        h->page_size - h->slot_count * uint32_t(sizeof(Slot));
    std::memset(base_ + h->free_offset, 0, slots_begin - h->free_offset);
  }

  /// Bytes still available for one more tuple (data + slot entry).
  uint32_t FreeSpace() const {
    const PageHeader* h = header();
    const uint32_t slots_bytes = (h->slot_count + 1u) * sizeof(Slot);
    const uint32_t used = h->free_offset + slots_bytes;
    return used >= h->page_size ? 0 : h->page_size - used;
  }

  /// True iff the header's page size equals `frame_size` and every slot
  /// lies inside the page: the slot array fits between the header and
  /// the page end, and each tuple lies between the header and the slot
  /// array. A page no checksum protects is checked with this before its
  /// slots are followed, so a torn page cannot send a reader past the
  /// frame.
  bool SlotsWithinFrame(uint32_t frame_size) const;

  /// Address of the slot array entry (used by prefetching kernels).
  const Slot* GetSlot(int i) const {
    return reinterpret_cast<const Slot*>(base_ + header()->page_size) - 1 - i;
  }

  uint8_t* data() { return base_; }
  const uint8_t* data() const { return base_; }

 private:
  const PageHeader* header() const {
    return reinterpret_cast<const PageHeader*>(base_);
  }
  PageHeader* mutable_header() {
    return reinterpret_cast<PageHeader*>(base_);
  }
  Slot* GetMutableSlot(int i) {
    return reinterpret_cast<Slot*>(base_ + header()->page_size) - 1 - i;
  }

  uint8_t* base_ = nullptr;
};

static_assert(sizeof(SlottedPage::PageHeader) == 12);

}  // namespace hashjoin

#endif  // HASHJOIN_STORAGE_SLOTTED_PAGE_H_

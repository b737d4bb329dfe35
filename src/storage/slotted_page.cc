#include "storage/slotted_page.h"

#include <cstddef>

#include "util/checksum.h"
#include "util/logging.h"

namespace hashjoin {

SlottedPage SlottedPage::Format(void* buffer, uint32_t page_size) {
  HJ_CHECK(page_size >= sizeof(PageHeader) + sizeof(Slot));
  SlottedPage page(buffer);
  PageHeader* h = page.mutable_header();
  h->slot_count = 0;
  h->free_offset = sizeof(PageHeader);
  h->page_size = page_size;
  h->checksum = 0;
  return page;
}

uint32_t SlottedPage::ComputeChecksum() const {
  // Sum the page with the checksum field replaced by zeroes, chaining
  // the CRC across the three byte ranges.
  const size_t field_off = offsetof(PageHeader, checksum);
  const uint32_t zero = 0;
  uint32_t crc = Crc32(base_, field_off);
  crc = Crc32(&zero, sizeof(zero), crc);
  crc = Crc32(base_ + field_off + sizeof(zero),
              header()->page_size - field_off - sizeof(zero), crc);
  return crc;
}

uint32_t SlottedPage::StampChecksum() {
  const uint32_t stamp = ComputeChecksum();
  mutable_header()->checksum = stamp;
  return stamp ^ Crc32Shift(stamp, header()->page_size -
                                       offsetof(PageHeader, checksum));
}

bool SlottedPage::VerifyChecksum(uint32_t frame_size) const {
  return header()->page_size == frame_size &&
         header()->checksum == ComputeChecksum();
}

uint32_t SlottedPage::FreeSpace() const {
  const PageHeader* h = header();
  uint32_t slots_bytes = (h->slot_count + 1u) * sizeof(Slot);
  uint32_t used = h->free_offset + slots_bytes;
  return used >= h->page_size ? 0 : h->page_size - used;
}

uint8_t* SlottedPage::AllocTuple(uint16_t length, uint32_t hash_code,
                                 int* slot_index) {
  PageHeader* h = mutable_header();
  uint32_t needed = length;
  if (FreeSpace() < needed) return nullptr;
  int idx = h->slot_count;
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

int SlottedPage::AddTuple(const void* data, uint16_t length,
                          uint32_t hash_code) {
  int idx = -1;
  uint8_t* dst = AllocTuple(length, hash_code, &idx);
  if (dst == nullptr) return -1;
  std::memcpy(dst, data, length);
  return idx;
}

const uint8_t* SlottedPage::GetTuple(int slot, uint16_t* length) const {
  HJ_DCHECK(slot >= 0 && slot < header()->slot_count);
  const Slot* s = GetSlot(slot);
  if (length != nullptr) *length = s->length;
  return base_ + s->offset;
}

uint8_t* SlottedPage::GetMutableTuple(int slot, uint16_t* length) {
  HJ_DCHECK(slot >= 0 && slot < header()->slot_count);
  const Slot* s = GetSlot(slot);
  if (length != nullptr) *length = s->length;
  return base_ + s->offset;
}

}  // namespace hashjoin

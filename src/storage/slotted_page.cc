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

bool SlottedPage::SlotsWithinFrame(uint32_t frame_size) const {
  if (frame_size < sizeof(PageHeader) || header()->page_size != frame_size) {
    return false;
  }
  const uint64_t slots_bytes = uint64_t(slot_count()) * sizeof(Slot);
  if (sizeof(PageHeader) + slots_bytes > frame_size) return false;
  const uint64_t data_end = frame_size - slots_bytes;
  for (int i = 0; i < slot_count(); ++i) {
    const Slot* s = GetSlot(i);
    if (s->offset < sizeof(PageHeader) ||
        uint64_t(s->offset) + s->length > data_end) {
      return false;
    }
  }
  return true;
}

}  // namespace hashjoin

#include "storage/slotted_page.h"

#include "util/logging.h"

namespace hashjoin {

SlottedPage SlottedPage::Format(void* buffer, uint32_t page_size) {
  HJ_CHECK(page_size >= sizeof(PageHeader) + sizeof(Slot));
  SlottedPage page(buffer);
  PageHeader* h = page.mutable_header();
  h->slot_count = 0;
  h->free_offset = sizeof(PageHeader);
  h->page_size = page_size;
  h->padding = 0;
  return page;
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

#include "storage/relation.h"

#include <utility>

#include "util/logging.h"

namespace hashjoin {

Relation::Relation(Schema schema, uint32_t page_size)
    : schema_(std::move(schema)), page_size_(page_size) {
  HJ_CHECK(page_size_ >= 256);
}

Relation::Relation(Relation&& other) noexcept
    // The comma checks `other` before anything is moved out of it.
    : schema_((other.CheckMutable(), std::move(other.schema_))),
      page_size_(other.page_size_),
      pages_(std::move(other.pages_)),
      num_tuples_(std::exchange(other.num_tuples_, 0)),
      data_bytes_(std::exchange(other.data_bytes_, 0)),
      append_page_open_(std::exchange(other.append_page_open_, false)),
      has_hash_codes_(std::exchange(other.has_hash_codes_, true)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  CheckMutable();
  other.CheckMutable();
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  page_size_ = other.page_size_;
  pages_ = std::move(other.pages_);
  num_tuples_ = std::exchange(other.num_tuples_, 0);
  data_bytes_ = std::exchange(other.data_bytes_, 0);
  append_page_open_ = std::exchange(other.append_page_open_, false);
  has_hash_codes_ = std::exchange(other.has_hash_codes_, true);
  return *this;
}

void Relation::CheckMutable() const {
  HJ_CHECK(!frozen())
      << "relation is shared with a hash-table cache and is immutable";
}

void Relation::AddPage() {
  // Page-aligned so the simulator's TLB model sees realistic page
  // boundaries.
  void* raw = AlignedAlloc(page_size_, page_size_);
  pages_.emplace_back(static_cast<uint8_t*>(raw));
  SlottedPage::Format(pages_.back().get(), page_size_);
  append_page_open_ = true;
}

uint8_t* Relation::AllocAppend(uint16_t length,
                               std::optional<uint32_t> hash_code) {
  CheckMutable();
  if (pages_.empty()) AddPage();
  const uint32_t code = hash_code.value_or(0);
  SlottedPage pg = SlottedPage::Attach(pages_.back().get());
  uint8_t* dst = pg.AllocTuple(length, code, nullptr);
  if (dst == nullptr) {
    AddPage();
    pg = SlottedPage::Attach(pages_.back().get());
    dst = pg.AllocTuple(length, code, nullptr);
    HJ_CHECK(dst != nullptr) << "tuple larger than a page";
  }
  ++num_tuples_;
  data_bytes_ += length;
  has_hash_codes_ = has_hash_codes_ && hash_code.has_value();
  return dst;
}

void Relation::Append(const void* data, uint16_t length,
                      std::optional<uint32_t> hash_code) {
  uint8_t* dst = AllocAppend(length, hash_code);
  std::memcpy(dst, data, length);
}

void Relation::AdoptPage(AlignedBuffer<uint8_t> page, SlotHashes hashes) {
  CheckMutable();
  SlottedPage pg = SlottedPage::Attach(page.get());
  HJ_CHECK(pg.page_size() == page_size_);
  num_tuples_ += pg.slot_count();
  for (int s = 0; s < pg.slot_count(); ++s) {
    uint16_t len = 0;
    pg.GetTuple(s, &len);
    data_bytes_ += len;
  }
  if (pg.slot_count() > 0 && hashes == SlotHashes::kNone) {
    has_hash_codes_ = false;
  }
  // Keep the open append page (if any) last so AllocAppend keeps
  // filling it; otherwise adopted pages append in arrival order.
  if (append_page_open_ && !pages_.empty()) {
    pages_.insert(pages_.end() - 1, std::move(page));
  } else {
    pages_.push_back(std::move(page));
  }
}

void Relation::AppendCopiedPage(const void* page_bytes, SlotHashes hashes) {
  const SlottedPage src =
      SlottedPage::Attach(const_cast<void*>(page_bytes));
  HJ_CHECK(src.page_size() == page_size_);
  void* raw = AlignedAlloc(page_size_, page_size_);
  std::memcpy(raw, page_bytes, page_size_);
  AdoptPage(AlignedBuffer<uint8_t>(static_cast<uint8_t*>(raw)), hashes);
}

Relation Relation::CopyPages(size_t begin, size_t end) const {
  HJ_CHECK(begin <= end && end <= pages_.size());
  Relation copy(schema_, page_size_);
  const SlotHashes hashes =
      has_hash_codes_ ? SlotHashes::kMemoized : SlotHashes::kNone;
  for (size_t i = begin; i < end; ++i) {
    copy.AppendCopiedPage(pages_[i].get(), hashes);
  }
  return copy;
}

const uint8_t* Relation::PeekAppendAddr() const {
  if (pages_.empty() || !append_page_open_) return nullptr;
  const SlottedPage pg = page(pages_.size() - 1);
  // Mirrors SlottedPage::AllocTuple's bump pointer.
  return pg.data() +
         reinterpret_cast<const SlottedPage::PageHeader*>(pg.data())
             ->free_offset;
}

void Relation::Absorb(Relation* other) {
  HJ_CHECK(other != this);
  HJ_CHECK(other->page_size_ == page_size_);
  CheckMutable();
  other->CheckMutable();
  // Close our open append page: absorbed pages land after it, so it can
  // no longer be the AllocAppend target.
  append_page_open_ = false;
  for (auto& page : other->pages_) pages_.push_back(std::move(page));
  num_tuples_ += other->num_tuples_;
  data_bytes_ += other->data_bytes_;
  has_hash_codes_ = has_hash_codes_ && other->has_hash_codes_;
  other->Clear();
}

void Relation::Clear() {
  CheckMutable();
  pages_.clear();
  num_tuples_ = 0;
  data_bytes_ = 0;
  append_page_open_ = false;
  has_hash_codes_ = true;
}

}  // namespace hashjoin

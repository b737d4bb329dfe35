#ifndef HASHJOIN_STORAGE_RELATION_H_
#define HASHJOIN_STORAGE_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "storage/schema.h"
#include "storage/slotted_page.h"
#include "util/aligned.h"

namespace hashjoin {

/// Passed as an Append/AllocAppend hash code: the slot memoizes none.
inline constexpr std::nullopt_t kNoHashCode = std::nullopt;

/// Whether the slots of a formatted page handed to a Relation hold
/// memoized hash codes.
enum class SlotHashes : bool { kNone, kMemoized };

/// An in-memory paged relation: a schema plus a sequence of slotted
/// pages. The CPU-performance experiments keep relations and intermediate
/// partitions memory-resident (the paper stores them as files "for
/// simplicity" and measures user-mode CPU time only; the I/O path is
/// exercised separately by the buffer manager and Figure 9).
///
/// A relation knows whether every slot holds its key's memoized hash
/// code (HashKey32 of the first four bytes): the generator and the
/// partition pass memoize codes, an append without one clears the state,
/// and kernels trust slot codes only while it holds.
///
/// A relation owned by a shared_ptr can be shared with a hash-table cache
/// instead of copied (weak_from_this()). Once shared it is frozen: cached
/// hash cells point into its pages, so every mutator — a move from it or
/// onto it included — fails a check instead of leaving those cells
/// dangling. Freezing is one-way.
class Relation : public std::enable_shared_from_this<Relation> {
 public:
  explicit Relation(Schema schema, uint32_t page_size = kDefaultPageSize);

  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  /// Appends a tuple, starting a new page when the current one is full.
  /// `hash_code` is the key's memoized hash, or kNoHashCode.
  void Append(const void* data, uint16_t length,
              std::optional<uint32_t> hash_code = kNoHashCode);

  /// Reserves space for a tuple and returns a writable pointer to it.
  uint8_t* AllocAppend(uint16_t length,
                       std::optional<uint32_t> hash_code = kNoHashCode);

  /// Takes ownership of an already-formatted page.
  void AdoptPage(AlignedBuffer<uint8_t> page, SlotHashes hashes);

  /// Copies an already-formatted page's bytes in (the partition phase
  /// "writes out" full output buffers this way, mirroring an async disk
  /// write that recycles the caller's buffer).
  void AppendCopiedPage(const void* page_bytes, SlotHashes hashes);

  /// A copy of pages [begin, end), page by page through
  /// AppendCopiedPage: same schema and page bytes, and hash codes when
  /// this relation has them.
  Relation CopyPages(size_t begin, size_t end) const;

  /// Address where the next appended tuple's bytes will start if it fits
  /// in the current page (used only as a prefetch hint; a page switch may
  /// place the tuple elsewhere). Null if no page is open.
  const uint8_t* PeekAppendAddr() const;

  const Schema& schema() const { return schema_; }
  uint32_t page_size() const { return page_size_; }
  size_t num_pages() const { return pages_.size(); }
  uint64_t num_tuples() const { return num_tuples_; }

  /// Total tuple payload bytes (excluding page headers/slots).
  uint64_t data_bytes() const { return data_bytes_; }

  /// True when every slot holds its key's memoized hash code (vacuously
  /// for an empty relation).
  bool has_hash_codes() const { return has_hash_codes_; }

  /// Freezes the relation (see the class comment). Const because a
  /// cache holds its build relations as const.
  void Freeze() const { frozen_.store(true); }
  bool frozen() const { return frozen_.load(); }

  const SlottedPage page(size_t i) const {
    return SlottedPage::Attach(const_cast<uint8_t*>(pages_[i].get()));
  }

  /// Calls f(tuple_ptr, length, hash_code) for every tuple in order.
  template <typename F>
  void ForEachTuple(F&& f) const {
    for (size_t p = 0; p < pages_.size(); ++p) {
      const SlottedPage pg = page(p);
      for (int s = 0; s < pg.slot_count(); ++s) {
        uint16_t len = 0;
        const uint8_t* t = pg.GetTuple(s, &len);
        f(t, len, pg.GetHashCode(s));
      }
    }
  }

  /// Moves every page of `other` to the end of this relation (schemas
  /// must match), leaving `other` empty. The parallel executor uses this
  /// to concatenate per-worker output sinks without copying.
  void Absorb(Relation* other);

  /// Drops all pages.
  void Clear();

 private:
  void AddPage();
  void CheckMutable() const;

  Schema schema_;
  uint32_t page_size_;
  std::vector<AlignedBuffer<uint8_t>> pages_;
  uint64_t num_tuples_ = 0;
  uint64_t data_bytes_ = 0;
  bool append_page_open_ = false;  // last page is the AllocAppend target
  bool has_hash_codes_ = true;
  mutable std::atomic<bool> frozen_{false};
};

}  // namespace hashjoin

#endif  // HASHJOIN_STORAGE_RELATION_H_

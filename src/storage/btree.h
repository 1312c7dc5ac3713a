// B+Tree over the buffer pool.
//
// Serves two roles, as in Ingres:
//  * BTREE storage structure for base tables (rows keyed by primary key;
//    no overflow pages — the analyzer's MODIFY ... TO BTREE target), and
//  * secondary indexes (key columns -> packed TID of the base row,
//    mirroring Ingres' index-as-table-with-tidp representation).
//
// Keys are order-preserving encodings (storage/key_codec.h) made unique by
// an appended 8-byte big-endian uniquifier, so duplicate user keys use the
// standard unique-key insert/split algorithms. The encoding is prefix-free
// across distinct values, which lets range scans bound "value == upper?"
// with a memcmp prefix test.
//
// Deletion is lazy (no page merging); pages reclaim space via slot
// compaction. Callers serialize writers through the engine's table locks.

#ifndef IMON_STORAGE_BTREE_H_
#define IMON_STORAGE_BTREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/value.h"
#include "storage/buffer_pool.h"

namespace imon::storage {

struct BTreeStats {
  int64_t entries = 0;
  uint32_t height = 0;      ///< 1 = root is a leaf
  uint32_t num_pages = 0;   ///< pages in the file (incl. meta)
};

class BTree {
 public:
  BTree(BufferPool* pool, FileId file);

  /// Format the file: meta page + empty root leaf. Call once per file.
  Status Create();

  /// Insert an entry. `user_key` is an EncodeKey() string; duplicates are
  /// allowed and kept in insertion order within equal keys.
  Status Insert(const std::string& user_key, std::string_view payload);

  /// Delete the first entry whose user key equals `user_key` and whose
  /// payload equals `payload`. NotFound if absent.
  Status Delete(const std::string& user_key, std::string_view payload);

  /// Forward cursor over (user_key, payload) entries in key order.
  class Cursor {
   public:
    bool Valid() const { return valid_; }
    /// Encoded user key (uniquifier stripped).
    std::string_view user_key() const { return user_key_; }
    std::string_view payload() const { return payload_; }
    Status Next();

   private:
    friend class BTree;
    const BTree* tree_ = nullptr;
    uint32_t page_no_ = kInvalidPageNo;
    uint16_t slot_ = 0;
    bool valid_ = false;
    std::string user_key_;
    std::string payload_;

    Status LoadCurrent();
    Status AdvanceUntilValid();  // skip to next live entry / next leaf
  };

  /// Position at the first entry.
  Result<Cursor> SeekToFirst() const;

  /// Position at the first entry with user key >= `user_key`.
  Result<Cursor> SeekLowerBound(const std::string& user_key) const;

  /// Leaf-at-a-time forward scan from the first entry with user key >=
  /// `start_user_key` (empty = first entry): one buffer-pool pin per
  /// leaf instead of two pins + two string copies per entry as with the
  /// Cursor. The views passed to `fn` alias the pinned page and are only
  /// valid during the call; `user_key` has the uniquifier stripped.
  /// Return false from `fn` to stop early.
  Status ScanFrom(const std::string& start_user_key,
                  const std::function<bool(std::string_view user_key,
                                           std::string_view payload)>& fn)
      const;

  /// Leaf pages in chain order starting at the leaf that may contain
  /// `start_user_key` (empty = leftmost leaf) — the unit list
  /// morsel-parallel scans partition. After the first leaf,
  /// `keep_going(user_key)` is consulted on each leaf's first live entry
  /// (uniquifier stripped); returning false stops the walk, which is
  /// sound for range scans because keys ascend across the chain. A leaf
  /// whose last live entry already fails `keep_going` ends the walk
  /// without pinning its successor, which could only fail too. Leaves
  /// with no live entries are included and never consulted.
  Status LeafChain(
      const std::string& start_user_key,
      const std::function<bool(std::string_view user_key)>& keep_going,
      std::vector<uint32_t>* out) const;

  /// Scan entries of the leaf pages `pages[begin..end)` in slot order,
  /// with the same callback contract as ScanFrom. A non-empty
  /// `seek_user_key` starts the first page at its first entry with user
  /// key >= it, as ScanFrom's seek does; every other live entry is
  /// yielded, and callers apply their own range predicate per entry.
  /// Safe to call concurrently over a frozen tree — each call pins one
  /// leaf at a time; not safe against writers.
  Status ScanLeafPages(const std::vector<uint32_t>& pages, size_t begin,
                       size_t end, const std::string& seek_user_key,
                       const std::function<bool(std::string_view user_key,
                                                std::string_view payload)>& fn)
      const;

  Result<BTreeStats> ComputeStats() const;

  FileId file_id() const { return file_; }

 private:
  struct Meta {
    uint32_t root = kInvalidPageNo;
    uint64_t next_uniquifier = 0;
    int64_t entry_count = 0;
  };
  struct SplitResult {
    std::string sep_key;  // full internal key (with uniquifier)
    uint32_t right_page = kInvalidPageNo;
  };

  Result<Meta> ReadMeta() const;
  Status WriteMeta(const Meta& meta);

  /// Recursive insert; returns split info when `page_no` split.
  Result<std::optional<SplitResult>> InsertInto(uint32_t page_no,
                                                const std::string& full_key,
                                                std::string_view payload);

  /// Leaf page number that may contain `full_key` (descend lower-bound).
  Result<uint32_t> FindLeaf(const std::string& full_key) const;
  /// FindLeaf, returning the leaf still pinned.
  Result<PageGuard> DescendToLeaf(const std::string& full_key) const;

  /// In a leaf/internal node, index of the first slot whose key >= key.
  static uint16_t LowerBound(const PageView& view, std::string_view key,
                             bool internal);

  static std::string_view EntryKey(std::string_view record);
  static std::string_view LeafPayload(std::string_view record);
  static uint32_t InternalChild(std::string_view record);
  static std::string MakeLeafRecord(std::string_view full_key,
                                    std::string_view payload);
  static std::string MakeInternalRecord(std::string_view full_key,
                                        uint32_t child);

  Result<SplitResult> SplitLeaf(uint32_t page_no);
  Result<SplitResult> SplitInternal(uint32_t page_no);

  BufferPool* pool_;
  FileId file_;
};

/// Number of trailing uniquifier bytes appended to every stored key.
inline constexpr size_t kUniquifierBytes = 8;

}  // namespace imon::storage

#endif  // IMON_STORAGE_BTREE_H_

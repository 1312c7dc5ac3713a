#include "storage/btree.h"

#include <cassert>
#include <cstring>
#include <vector>

namespace imon::storage {

namespace {

void AppendBE64(std::string* out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
}

std::string SerializeMeta(uint32_t root, uint64_t uniq, int64_t count) {
  std::string out;
  out.resize(20);
  std::memcpy(&out[0], &root, 4);
  std::memcpy(&out[4], &uniq, 8);
  std::memcpy(&out[12], &count, 8);
  return out;
}

}  // namespace

BTree::BTree(BufferPool* pool, FileId file) : pool_(pool), file_(file) {}

Status BTree::Create() {
  IMON_ASSIGN_OR_RETURN(PageGuard meta_guard, pool_->New(file_));
  if (meta_guard.page_id().page_no != 0)
    return Status::Internal("btree: meta page must be page 0");
  IMON_ASSIGN_OR_RETURN(PageGuard root_guard, pool_->New(file_));
  root_guard.Write().Init(PageType::kBTreeLeaf);
  uint32_t root_no = root_guard.page_id().page_no;
  PageView meta_view = meta_guard.Write();
  meta_view.Init(PageType::kBTreeMeta);
  auto slot = meta_view.Insert(SerializeMeta(root_no, 0, 0));
  if (!slot.has_value() || *slot != 0)
    return Status::Internal("btree: meta record insert failed");
  return Status::OK();
}

Result<BTree::Meta> BTree::ReadMeta() const {
  IMON_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(PageId{file_, 0}));
  std::string_view rec = guard.Read().Get(0);
  if (rec.size() != 20) return Status::Corruption("btree: bad meta record");
  Meta m;
  std::memcpy(&m.root, rec.data(), 4);
  std::memcpy(&m.next_uniquifier, rec.data() + 4, 8);
  std::memcpy(&m.entry_count, rec.data() + 12, 8);
  return m;
}

Status BTree::WriteMeta(const Meta& meta) {
  IMON_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(PageId{file_, 0}));
  if (!guard.Write().Update(
          0, SerializeMeta(meta.root, meta.next_uniquifier, meta.entry_count)))
    return Status::Internal("btree: meta update failed");
  return Status::OK();
}

std::string_view BTree::EntryKey(std::string_view record) {
  uint16_t klen;
  std::memcpy(&klen, record.data(), 2);
  return record.substr(2, klen);
}

std::string_view BTree::LeafPayload(std::string_view record) {
  uint16_t klen;
  std::memcpy(&klen, record.data(), 2);
  return record.substr(2 + klen);
}

uint32_t BTree::InternalChild(std::string_view record) {
  uint16_t klen;
  std::memcpy(&klen, record.data(), 2);
  uint32_t child;
  std::memcpy(&child, record.data() + 2 + klen, 4);
  return child;
}

std::string BTree::MakeLeafRecord(std::string_view full_key,
                                  std::string_view payload) {
  std::string rec;
  uint16_t klen = static_cast<uint16_t>(full_key.size());
  rec.append(reinterpret_cast<const char*>(&klen), 2);
  rec.append(full_key);
  rec.append(payload);
  return rec;
}

std::string BTree::MakeInternalRecord(std::string_view full_key,
                                      uint32_t child) {
  std::string rec;
  uint16_t klen = static_cast<uint16_t>(full_key.size());
  rec.append(reinterpret_cast<const char*>(&klen), 2);
  rec.append(full_key);
  rec.append(reinterpret_cast<const char*>(&child), 4);
  return rec;
}

uint16_t BTree::LowerBound(const PageView& view, std::string_view key,
                           bool /*internal*/) {
  uint16_t lo = 0;
  uint16_t hi = view.slot_count();
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    std::string_view stored = EntryKey(view.Get(mid));
    if (stored < key) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<uint32_t> BTree::FindLeaf(const std::string& full_key) const {
  IMON_ASSIGN_OR_RETURN(PageGuard leaf, DescendToLeaf(full_key));
  return leaf.page_id().page_no;
}

Result<PageGuard> BTree::DescendToLeaf(const std::string& full_key) const {
  IMON_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  uint32_t page_no = meta.root;
  while (true) {
    IMON_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(PageId{file_, page_no}));
    PageView view = guard.Read();
    if (view.type() == PageType::kBTreeLeaf) return guard;
    if (view.type() != PageType::kBTreeInternal)
      return Status::Corruption("btree: unexpected page type in descent");
    uint16_t pos = LowerBound(view, full_key, true);
    uint32_t child;
    if (pos < view.slot_count() && EntryKey(view.Get(pos)) == full_key) {
      child = InternalChild(view.Get(pos));
    } else if (pos == 0) {
      child = view.extra();  // leftmost child
    } else {
      child = InternalChild(view.Get(pos - 1));
    }
    page_no = child;
  }
}

Status BTree::Insert(const std::string& user_key, std::string_view payload) {
  IMON_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  std::string full_key = user_key;
  AppendBE64(&full_key, meta.next_uniquifier);
  if (MakeLeafRecord(full_key, payload).size() > kMaxRecordSize / 2)
    return Status::InvalidArgument("btree: entry larger than half a page");

  IMON_ASSIGN_OR_RETURN(auto split, InsertInto(meta.root, full_key, payload));
  if (split.has_value()) {
    // Grow a new root.
    IMON_ASSIGN_OR_RETURN(PageGuard root_guard, pool_->New(file_));
    PageView view = root_guard.Write();
    view.Init(PageType::kBTreeInternal);
    view.set_extra(meta.root);  // old root = leftmost child
    if (!view.InsertAt(0, MakeInternalRecord(split->sep_key, split->right_page)))
      return Status::Internal("btree: new root insert failed");
    meta.root = root_guard.page_id().page_no;
  }
  meta.next_uniquifier += 1;
  meta.entry_count += 1;
  return WriteMeta(meta);
}

Result<std::optional<BTree::SplitResult>> BTree::InsertInto(
    uint32_t page_no, const std::string& full_key, std::string_view payload) {
  IMON_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(PageId{file_, page_no}));
  PageView view = guard.Read();

  if (view.type() == PageType::kBTreeLeaf) {
    std::string record = MakeLeafRecord(full_key, payload);
    uint16_t pos = LowerBound(view, full_key, false);
    if (guard.Write().InsertAt(pos, record))
      return std::optional<SplitResult>(std::nullopt);

    // Gather all entries plus the new one and redistribute over two pages
    // with roughly equal byte counts.
    std::vector<std::string> records;
    records.reserve(view.slot_count() + 1);
    for (uint16_t i = 0; i < view.slot_count(); ++i)
      records.emplace_back(view.Get(i));
    records.insert(records.begin() + pos, record);

    size_t total = 0;
    for (const auto& r : records) total += r.size();
    size_t acc = 0;
    size_t split_at = records.size() / 2;
    for (size_t i = 0; i < records.size(); ++i) {
      acc += records[i].size();
      if (acc >= total / 2) {
        split_at = i + 1;
        break;
      }
    }
    if (split_at == records.size()) split_at = records.size() - 1;
    if (split_at == 0) split_at = 1;

    IMON_ASSIGN_OR_RETURN(PageGuard right_guard, pool_->New(file_));
    uint32_t right_no = right_guard.page_id().page_no;
    {
      PageView right = right_guard.Write();
      right.Init(PageType::kBTreeLeaf);
      for (size_t i = split_at; i < records.size(); ++i) {
        if (!right.InsertAt(static_cast<uint16_t>(i - split_at), records[i]))
          return Status::Internal("btree: leaf split right insert failed");
      }
      right.set_next_page(view.next_page());
    }
    {
      PageView left = guard.Write();
      uint32_t old_next = left.next_page();
      (void)old_next;
      left.Init(PageType::kBTreeLeaf);
      for (size_t i = 0; i < split_at; ++i) {
        if (!left.InsertAt(static_cast<uint16_t>(i), records[i]))
          return Status::Internal("btree: leaf split left insert failed");
      }
      left.set_next_page(right_no);
    }
    SplitResult result;
    result.sep_key = std::string(EntryKey(records[split_at]));
    result.right_page = right_no;
    return std::optional<SplitResult>(std::move(result));
  }

  if (view.type() != PageType::kBTreeInternal)
    return Status::Corruption("btree: unexpected page type on insert");

  // Descend.
  uint16_t pos = LowerBound(view, full_key, true);
  uint32_t child;
  uint16_t child_entry_pos;  // slot whose child we took (or leftmost)
  if (pos < view.slot_count() && EntryKey(view.Get(pos)) == full_key) {
    child = InternalChild(view.Get(pos));
    child_entry_pos = static_cast<uint16_t>(pos + 1);
  } else if (pos == 0) {
    child = view.extra();
    child_entry_pos = 0;
  } else {
    child = InternalChild(view.Get(pos - 1));
    child_entry_pos = pos;
  }
  guard.Release();  // don't hold parent pinned across recursion

  IMON_ASSIGN_OR_RETURN(auto child_split, InsertInto(child, full_key, payload));
  if (!child_split.has_value()) return std::optional<SplitResult>(std::nullopt);

  // Insert (sep, right) into this node at child_entry_pos.
  IMON_ASSIGN_OR_RETURN(guard, pool_->Fetch(PageId{file_, page_no}));
  view = guard.Read();
  std::string record =
      MakeInternalRecord(child_split->sep_key, child_split->right_page);
  if (guard.Write().InsertAt(child_entry_pos, record))
    return std::optional<SplitResult>(std::nullopt);

  // Split this internal node: gather, pick middle, push it up.
  std::vector<std::string> records;
  records.reserve(view.slot_count() + 1);
  for (uint16_t i = 0; i < view.slot_count(); ++i)
    records.emplace_back(view.Get(i));
  records.insert(records.begin() + child_entry_pos, record);

  size_t mid = records.size() / 2;
  IMON_ASSIGN_OR_RETURN(PageGuard right_guard, pool_->New(file_));
  uint32_t right_no = right_guard.page_id().page_no;
  {
    PageView right = right_guard.Write();
    right.Init(PageType::kBTreeInternal);
    right.set_extra(InternalChild(records[mid]));  // mid's child -> leftmost
    for (size_t i = mid + 1; i < records.size(); ++i) {
      if (!right.InsertAt(static_cast<uint16_t>(i - mid - 1), records[i]))
        return Status::Internal("btree: internal split right insert failed");
    }
  }
  std::string sep(EntryKey(records[mid]));
  {
    PageView left = guard.Write();
    uint32_t leftmost = left.extra();
    left.Init(PageType::kBTreeInternal);
    left.set_extra(leftmost);
    for (size_t i = 0; i < mid; ++i) {
      if (!left.InsertAt(static_cast<uint16_t>(i), records[i]))
        return Status::Internal("btree: internal split left insert failed");
    }
  }
  SplitResult result;
  result.sep_key = std::move(sep);
  result.right_page = right_no;
  return std::optional<SplitResult>(std::move(result));
}

Status BTree::Delete(const std::string& user_key, std::string_view payload) {
  IMON_ASSIGN_OR_RETURN(uint32_t page_no, FindLeaf(user_key));
  while (page_no != kInvalidPageNo) {
    IMON_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(PageId{file_, page_no}));
    PageView view = guard.Read();
    uint16_t pos = LowerBound(view, user_key, false);
    for (uint16_t i = pos; i < view.slot_count(); ++i) {
      std::string_view record = view.Get(i);
      std::string_view stored = EntryKey(record);
      if (stored.size() < kUniquifierBytes ||
          stored.substr(0, stored.size() - kUniquifierBytes) != user_key) {
        return Status::NotFound("btree: entry not found");
      }
      if (LeafPayload(record) == payload) {
        guard.Write().Erase(i);
        IMON_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
        meta.entry_count -= 1;
        return WriteMeta(meta);
      }
    }
    page_no = view.next_page();
    // Continue into the next leaf only while keys can still match.
  }
  return Status::NotFound("btree: entry not found");
}

Status BTree::Cursor::LoadCurrent() {
  IMON_ASSIGN_OR_RETURN(PageGuard guard,
                        tree_->pool_->Fetch(PageId{tree_->file_, page_no_}));
  PageView view = guard.Read();
  if (slot_ >= view.slot_count()) {
    valid_ = false;
    return Status::Internal("btree cursor: slot out of range");
  }
  std::string_view record = view.Get(slot_);
  std::string_view full = EntryKey(record);
  user_key_.assign(full.data(), full.size() - kUniquifierBytes);
  std::string_view payload = LeafPayload(record);
  payload_.assign(payload.data(), payload.size());
  valid_ = true;
  return Status::OK();
}

Status BTree::Cursor::AdvanceUntilValid() {
  while (page_no_ != kInvalidPageNo) {
    IMON_ASSIGN_OR_RETURN(PageGuard guard,
                          tree_->pool_->Fetch(PageId{tree_->file_, page_no_}));
    PageView view = guard.Read();
    if (slot_ < view.slot_count()) {
      guard.Release();
      return LoadCurrent();
    }
    page_no_ = view.next_page();
    slot_ = 0;
  }
  valid_ = false;
  return Status::OK();
}

Status BTree::Cursor::Next() {
  if (!valid_) return Status::OK();
  ++slot_;
  return AdvanceUntilValid();
}

Status BTree::ScanFrom(
    const std::string& start_user_key,
    const std::function<bool(std::string_view user_key,
                             std::string_view payload)>& fn) const {
  // FindLeaf with an empty key descends lower-bound to the leftmost
  // leaf, so one entry path covers full scans and range starts alike.
  IMON_ASSIGN_OR_RETURN(uint32_t page_no, FindLeaf(start_user_key));
  bool seek_slot = !start_user_key.empty();
  while (page_no != kInvalidPageNo) {
    IMON_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(PageId{file_, page_no}));
    PageView view = guard.Read();
    uint16_t slot = 0;
    if (seek_slot) {
      slot = LowerBound(view, start_user_key, false);
      seek_slot = false;
    }
    for (; slot < view.slot_count(); ++slot) {
      std::string_view record = view.Get(slot);
      std::string_view full = EntryKey(record);
      std::string_view user = full.substr(0, full.size() - kUniquifierBytes);
      if (!fn(user, LeafPayload(record))) return Status::OK();
    }
    page_no = view.next_page();
  }
  return Status::OK();
}

Status BTree::LeafChain(
    const std::string& start_user_key,
    const std::function<bool(std::string_view user_key)>& keep_going,
    std::vector<uint32_t>* out) const {
  out->clear();
  // The descent's pin on the start leaf serves its first visit.
  IMON_ASSIGN_OR_RETURN(PageGuard guard, DescendToLeaf(start_user_key));
  bool first = true;
  while (true) {
    PageView view = guard.Read();
    if (view.type() != PageType::kBTreeLeaf)
      return Status::Corruption("btree: non-leaf page in leaf chain");
    // keep_going on the leaf's first or last live entry; true if none.
    auto keeps = [&](bool last) {
      const uint16_t n = view.slot_count();
      for (uint16_t i = 0; i < n; ++i) {
        std::string_view record = view.Get(static_cast<uint16_t>(last ? n - 1 - i : i));
        if (record.empty()) continue;
        std::string_view full = EntryKey(record);
        return keep_going(full.substr(0, full.size() - kUniquifierBytes));
      }
      return true;
    };
    // The first live entry is the leaf's minimum; if it is already out
    // of range, so is every entry in this and all later leaves. The
    // start leaf is always kept (its low slots sit below the range).
    if (!first && !keeps(false)) return Status::OK();
    first = false;
    out->push_back(guard.page_id().page_no);
    // Likewise the last live entry is its maximum.
    if (!keeps(true)) return Status::OK();
    uint32_t next = view.next_page();
    if (next == kInvalidPageNo) return Status::OK();
    guard.Release();  // one pin at a time, as in every other walk
    IMON_ASSIGN_OR_RETURN(guard, pool_->Fetch(PageId{file_, next}));
  }
}

Status BTree::ScanLeafPages(
    const std::vector<uint32_t>& pages, size_t begin, size_t end,
    const std::string& seek_user_key,
    const std::function<bool(std::string_view user_key,
                             std::string_view payload)>& fn) const {
  for (size_t i = begin; i < end && i < pages.size(); ++i) {
    IMON_ASSIGN_OR_RETURN(PageGuard guard,
                          pool_->Fetch(PageId{file_, pages[i]}));
    PageView view = guard.Read();
    if (view.type() != PageType::kBTreeLeaf)
      return Status::Corruption("btree: non-leaf page in leaf-page scan");
    uint16_t slot = 0;
    if (i == begin && !seek_user_key.empty()) {
      slot = LowerBound(view, seek_user_key, false);
    }
    for (; slot < view.slot_count(); ++slot) {
      std::string_view record = view.Get(slot);
      if (record.empty()) continue;
      std::string_view full = EntryKey(record);
      std::string_view user = full.substr(0, full.size() - kUniquifierBytes);
      if (!fn(user, LeafPayload(record))) return Status::OK();
    }
  }
  return Status::OK();
}

Result<BTree::Cursor> BTree::SeekToFirst() const {
  IMON_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  uint32_t page_no = meta.root;
  while (true) {
    IMON_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(PageId{file_, page_no}));
    PageView view = guard.Read();
    if (view.type() == PageType::kBTreeLeaf) break;
    page_no = view.extra();  // leftmost child
  }
  Cursor cursor;
  cursor.tree_ = this;
  cursor.page_no_ = page_no;
  cursor.slot_ = 0;
  IMON_RETURN_IF_ERROR(cursor.AdvanceUntilValid());
  return cursor;
}

Result<BTree::Cursor> BTree::SeekLowerBound(const std::string& user_key) const {
  IMON_ASSIGN_OR_RETURN(uint32_t leaf, FindLeaf(user_key));
  Cursor cursor;
  cursor.tree_ = this;
  cursor.page_no_ = leaf;
  {
    IMON_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(PageId{file_, leaf}));
    cursor.slot_ = LowerBound(guard.Read(), user_key, false);
  }
  IMON_RETURN_IF_ERROR(cursor.AdvanceUntilValid());
  return cursor;
}

Result<BTreeStats> BTree::ComputeStats() const {
  IMON_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  BTreeStats stats;
  stats.entries = meta.entry_count;
  uint32_t page_no = meta.root;
  uint32_t height = 1;
  while (true) {
    IMON_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(PageId{file_, page_no}));
    PageView view = guard.Read();
    if (view.type() == PageType::kBTreeLeaf) break;
    page_no = view.extra();
    ++height;
  }
  stats.height = height;
  stats.num_pages = pool_->disk()->NumPages(file_);
  return stats;
}

}  // namespace imon::storage

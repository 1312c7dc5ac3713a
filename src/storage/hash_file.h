// Ingres-style HASH storage structure.
//
// A hash table is created with a fixed number of main bucket pages; rows
// hash on the key columns into a bucket and append to its page chain.
// Pages allocated beyond the main allocation are overflow pages — a hash
// table that outgrows its bucket count degrades exactly the way the
// paper's analyzer rule R3 looks for, and MODIFY ... TO HASH re-buckets.
//
// Point lookups on the full key read one bucket chain; scans walk all
// buckets. Row addresses are RIDs, as for heap files.

#ifndef IMON_STORAGE_HASH_FILE_H_
#define IMON_STORAGE_HASH_FILE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "common/value.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace imon::storage {

class HashFile {
 public:
  /// `buckets`: number of main bucket pages (fixed at creation).
  HashFile(BufferPool* pool, FileId file, uint32_t buckets);

  /// Allocate the bucket pages. Call once per file.
  Status Initialize();

  /// Insert a row whose encoded key is `key` (order-preserving encoding
  /// of the key columns).
  Result<Rid> Insert(const std::string& key, const Row& row);

  Result<Row> Get(Rid rid) const;
  Status Delete(Rid rid);
  /// In-place when possible; note the row's bucket is determined by its
  /// key, which updates must not change (the engine re-inserts instead).
  Result<Rid> Update(Rid rid, const Row& row);

  /// Visit rows in the bucket `key` hashes to; callers re-check equality
  /// on the fetched rows (hash collisions share buckets). Rows are
  /// decoded into a buffer reused across calls: the callback may move
  /// from it, but must not hold a reference past its return.
  Status LookupBucket(const std::string& key,
                      const std::function<bool(Rid, Row&)>& fn) const;

  /// Visit every live row (bucket by bucket).
  Status Scan(const std::function<bool(Rid, Row&)>& fn) const;

  /// Visit live rows of buckets [begin, end) in bucket order — the
  /// bucket-range unit morsel-parallel scans partition. Visiting every
  /// bucket range in order reproduces Scan exactly. Safe to call
  /// concurrently over a frozen file (each call owns its decode buffer);
  /// not safe against concurrent writers.
  Status ScanBuckets(uint32_t begin, uint32_t end,
                     const std::function<bool(Rid, Row&)>& fn) const;

  Result<HeapFileStats> ComputeStats() const;

  /// Bucket a row with encoded key `key` lives in.
  uint32_t BucketOf(const std::string& key) const;

  uint32_t buckets() const { return buckets_; }
  FileId file_id() const { return file_; }

 private:
  /// Page in `bucket`'s chain with room for `record_size` (grows the
  /// chain with an overflow page when needed).
  Result<uint32_t> PageForInsert(uint32_t bucket, size_t record_size);
  Status ScanChain(uint32_t first_page,
                   const std::function<bool(Rid, Row&)>& fn) const;

  BufferPool* pool_;
  FileId file_;
  uint32_t buckets_;
};

}  // namespace imon::storage

#endif  // IMON_STORAGE_HASH_FILE_H_

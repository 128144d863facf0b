#ifndef BLAS_STORAGE_PERSIST_H_
#define BLAS_STORAGE_PERSIST_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "labeling/node_record.h"
#include "labeling/tag_registry.h"
#include "schema/path_summary.h"
#include "storage/node_store.h"
#include "storage/string_dict.h"

namespace blas {

/// \brief Serializable form of a BLAS index: everything the index
/// generator produced, sufficient to rebuild the node store, codec, value
/// dictionary and path summary without re-parsing the XML.
struct IndexSnapshot {
  /// Tag names in id order (id = position + 1; id 0 is "/").
  std::vector<std::string> tags;
  /// Maximum document depth (sizes the P-label codec).
  int max_depth = 0;
  /// All node records (any order).
  std::vector<NodeRecord> records;
  /// Dictionary values in id order, which is ValueCollate order.
  std::vector<std::string> values;
};

// ------------------------------------------------------------------------
// BLASIDX2 — the page-aligned, demand-pageable snapshot format.
//
// Layout (all regions page-granular; any page addressable by
// (segment, index) without reading the rest of the file):
//
//   file page 0          fixed-size header + segment directory
//   file pages 1..P      the pool's page space, P = pool_pages:
//                          [tree segment]  the four clustered B+-trees
//                                          (sp, sd, value, doc), each a
//                                          contiguous pool-page range
//                                          recorded in its tree meta
//                          [value pages]   paged string dictionary in
//                                          id order, which is collation
//                                          order (see PagedDictLayout) —
//                                          Find binary-searches it
//   trailing file pages  eagerly-loaded byte segments, each starting on
//                        a page boundary and padded to whole pages:
//                          [tag table]        u32 length + bytes per tag
//                          [path summary]     per node (preorder):
//                                             u32 parent entry index
//                                             (0xFFFFFFFF = root child),
//                                             u32 tag, u64 count
//                          [value page index] u32 first value id of each
//                                             value page (non-decreasing:
//                                             every page of a value run
//                                             repeats the run's id)
//
// A value longer than kMaxPagedValue gets a run of value pages to itself
// (PagedDictLayout). Files without one lay out as before runs existed, so
// runs needed no version bump; an older reader rejects a file holding one
// (its value page index is not strictly ascending), never misreads it.
//
// Version 5. Dictionary ids follow ValueCollate (XPath numbers first,
// ascending, ties by bytes; then every other value by bytes), so the
// value pages are sorted and every value predicate is one id interval.
// Tree leaf pages: a 16-byte header (is_leaf, count, next leaf, pad)
// followed by up to 255 native 32-byte NodeRecords — u128 plabel, u32
// start, u32 end, u32 data, then tag (24 bits) and level (8 bits) sharing
// one u32. Internal pages: an 8-byte header (is_leaf, count), the
// separator keys, then count + 1 u32 child ids at a fixed offset. Keys are
// packed with no padding: SP's 20-byte (plabel, start) gives 340 keys per
// node, SD's 8-byte (tag, start) 681, and the value tree's 24-byte
// (plabel, data, start) 292. SP, SD and the doc-order tree hold every
// record; the value tree holds exactly the records that carry a value.
// Every tree has the bulk-load shape (BPlusTree::BulkShape): leaves full
// but the last, contiguous from the tree's first page, the root its last
// page — the value tree's exact counts rely on it. Version 4 files (ids in
// insertion order, a value tree over every record ordered (data, plabel,
// start), and a permutation segment after the value pages), version 3
// files (32-byte padded SP and value keys, 227 per node), version 2 files
// (value tree keyed by (data, start)) and version 1 files (48-byte
// records, 170 per leaf) are rejected with Corruption and must be
// re-saved.
//
// The header stores (little-endian): magic "BLASIDX2", version,
// page_size, a native-endianness probe, sizeof(NodeRecord) and the three
// composite key sizes (tree pages are stored in native layout — a
// snapshot is rejected, not misread, on an ABI mismatch), node/tag/value
// counts, max_depth, pool_pages, the four tree metas (root, first leaf,
// size, height, pool page range) and the segment directory (file-page
// first/count + exact byte length per segment).
//
// Validation rules (checked by OpenPagedSnapshot before anything sized by
// the file is allocated, and before any data page is trusted):
//   * magic/version/page_size/endian probe/record+key sizes must match
//     this build exactly;
//   * the file size must cover the header, all pool pages and every
//     directory segment (ranges in bounds, byte lengths within their
//     page ranges);
//   * tree metas must lie inside the tree segment with the bulk-load
//     shape of their size: page count and height as BulkShape computes
//     them, first_leaf the tree's first page and root its last (both
//     invalid iff the tree is empty); size == node_count, except the
//     value tree's size <= node_count (the materializing loader checks it
//     equals the number of valued records);
//   * the value pages must follow the tree segment exactly and sum (with
//     it) to pool_pages;
//   * tag table, summary and value-page-index entries must parse within
//     their declared byte lengths; summary parents must precede their
//     children; the value page index must start at 0 and never descend;
//   * every count is bounded by its segment's bytes before any resize().
// Violations fail with Status::Corruption. At run time, a page id that
// still escapes range (and any short read) yields an empty PageRef,
// which scans treat as end-of-data — never UB.
//
// Paged-open rules (OpenPaged preads pool pages on demand for as long as
// the system lives):
//   * Immutability: a published file must not change size or content
//     while a paged system reads it. BLASIDX2 snapshots satisfy this by
//     construction — they are written tmp+fsync+rename and never
//     modified in place; a new generation is a new file. Logical
//     deletion is fine: LiveCollection unlinks an obsolete segment only
//     after the last pin on its system drops and the system (with its
//     descriptor) is gone; a crash in between leaves an orphan file for
//     LiveCollection::SweepOrphans.
//   * Preflight: PagedFile::Open fstats the file and requires it to
//     cover base_offset + pool_pages * kPageSize, so a truncated file
//     behind a valid header fails with Corruption at open instead of
//     with a short read under some later query.
// ------------------------------------------------------------------------

/// One flattened path-summary node (preorder; parent precedes child).
struct PagedSummaryEntry {
  uint32_t parent = 0xFFFFFFFFu;  // entry index, 0xFFFFFFFF = root child
  TagId tag = 0;
  uint64_t count = 0;
};

/// Everything OpenPagedSnapshot loads eagerly — O(schema), not O(data):
/// header metadata plus the tag table, flattened summary and value page
/// index. The page segments stay on disk until a query faults them in.
struct PagedIndex {
  std::string path;
  std::vector<std::string> tags;
  int max_depth = 0;
  uint64_t node_count = 0;
  uint64_t pool_pages = 0;
  PagedStoreMeta store_meta;
  PagedDictLayout dict_layout;  // pool-relative page ids
  std::vector<PagedSummaryEntry> summary;

  /// Opens the pool's backing file (pages at `kPageSize * (1 + id)`).
  Result<PagedFile> OpenPool() const;
};

/// Components of a live system that SavePagedSnapshot lays out into
/// BLASIDX2 page segments.
struct PagedSnapshotParts {
  const NodeStore* store = nullptr;
  const TagRegistry* tags = nullptr;
  const StringDict* dict = nullptr;
  const PathSummary* summary = nullptr;
  int max_depth = 0;
};

/// Writes a BLASIDX2 paged snapshot. Crash safety: the bytes go to
/// `path + ".tmp"`, are flushed and fsync'ed, and only then atomically
/// renamed over `path` — a crash mid-write leaves the previous good
/// snapshot untouched; the stale .tmp is simply overwritten next time.
/// Values of any length up to 4 GiB are stored (CapacityExceeded beyond).
Status SavePagedSnapshot(const PagedSnapshotParts& parts,
                         const std::string& path);

/// Reads and validates a BLASIDX2 header and its eager segments (see the
/// validation rules above). O(1) in document size.
Result<PagedIndex> OpenPagedSnapshot(const std::string& path);

/// Fully materializes a BLASIDX2 snapshot into an IndexSnapshot (the
/// FromIndexFile path): OpenPagedSnapshot's preflight, then the SP leaf
/// chain and every value page, whose untrusted payloads are checked as
/// they are read (leaf counts, the chain staying in its segment, value
/// groups decoded by the same DecodeValuePages as the paged dictionary),
/// plus the value tree holding exactly the valued records and the values
/// ascending in collation order.
/// Fails with NotFound for a missing file and Corruption for anything
/// else that is not a valid current-version BLASIDX2 file.
Result<IndexSnapshot> LoadSnapshot(const std::string& path);

}  // namespace blas

#endif  // BLAS_STORAGE_PERSIST_H_

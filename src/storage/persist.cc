#include "storage/persist.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

namespace blas {

namespace {

constexpr char kMagic2[8] = {'B', 'L', 'A', 'S', 'I', 'D', 'X', '2'};
/// 5: dictionary ids follow ValueCollate, the value tree is keyed
/// (plabel, data, start) over valued records only, and no permutation
/// segment follows the value pages. Version 4 files (value tree keyed
/// (data, plabel, start) over every record, insertion-ordered ids),
/// version 3 files (32-byte padded keys), version 2 files (value tree keyed
/// by (data, start)) and version 1 files (48-byte records) must be
/// re-saved.
constexpr uint32_t kVersion2 = 5;
/// Written in native byte order: a snapshot produced by a different
/// endianness reads back as a different value and is rejected (tree pages
/// are raw native layout, so misreading them must be impossible).
constexpr uint32_t kEndianProbe = 0x01020304u;
constexpr uint32_t kNoParent = 0xFFFFFFFFu;
/// Bytes before a run's value: the head page's header and two offsets.
constexpr size_t kOneValueHead = kPageSize - kMaxPagedValue;

/// Bytes of one flattened summary entry (parent u32, tag u32, count u64).
constexpr uint64_t kSummaryEntryBytes = 16;

// ------------------------------------------------- atomic file writing ---

/// Writes `path + ".tmp"`, then Commit() flushes, fsyncs and atomically
/// renames over `path` — a crash mid-write never destroys the previous
/// good snapshot. Abandoning the writer removes the partial .tmp.
class AtomicFile {
 public:
  explicit AtomicFile(std::string path)
      : path_(std::move(path)), tmp_(path_ + ".tmp") {
    file_ = std::fopen(tmp_.c_str(), "wb");
  }

  ~AtomicFile() {
    if (file_ != nullptr) {
      std::fclose(file_);
      std::remove(tmp_.c_str());
    }
  }

  bool open() const { return file_ != nullptr; }
  uint64_t written() const { return written_; }

  void Write(const void* data, size_t n) {
    if (file_ == nullptr || failed_) return;
    if (std::fwrite(data, 1, n, file_) != n) failed_ = true;
    written_ += n;
  }

  /// Zero-pads to the next page boundary.
  void PadToPage() {
    static const char zeros[256] = {};
    while (written_ % kPageSize != 0 && !failed_) {
      size_t n = std::min<uint64_t>(sizeof(zeros),
                                    kPageSize - written_ % kPageSize);
      Write(zeros, n);
    }
  }

  Status Commit() {
    if (file_ == nullptr) {
      return Status::InvalidArgument("cannot open for write: " + tmp_);
    }
    if (!failed_ && std::fflush(file_) != 0) failed_ = true;
    if (!failed_ && ::fsync(::fileno(file_)) != 0) failed_ = true;
    if (std::fclose(file_) != 0) failed_ = true;
    file_ = nullptr;
    if (failed_) {
      std::remove(tmp_.c_str());
      return Status::Internal("write failed: " + tmp_);
    }
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
      std::remove(tmp_.c_str());
      return Status::Internal("rename failed: " + tmp_ + " -> " + path_);
    }
    // Best-effort directory fsync so the rename itself is durable.
    std::string dir = path_;
    size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
      (void)::fsync(dfd);
      ::close(dfd);
    }
    return Status::OK();
  }

 private:
  std::string path_;
  std::string tmp_;
  std::FILE* file_ = nullptr;
  bool failed_ = false;
  uint64_t written_ = 0;
};

void WriteU32(AtomicFile& os, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.Write(buf, 4);
}

void WriteU64(AtomicFile& os, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.Write(buf, 8);
}

void WriteString(AtomicFile& os, const std::string& s) {
  WriteU32(os, static_cast<uint32_t>(s.size()));
  os.Write(s.data(), s.size());
}

/// Little-endian readers over an in-memory buffer (the BLASIDX2 header).
class BufReader {
 public:
  BufReader(const std::byte* data, size_t size) : data_(data), size_(size) {}

  bool U32(uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    *v = 0;
    for (int i = 3; i >= 0; --i) {
      *v = (*v << 8) | static_cast<uint8_t>(data_[pos_ + i]);
    }
    pos_ += 4;
    return true;
  }

  bool U64(uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    *v = 0;
    for (int i = 7; i >= 0; --i) {
      *v = (*v << 8) | static_cast<uint8_t>(data_[pos_ + i]);
    }
    pos_ += 8;
    return true;
  }

  bool Raw(void* out, size_t n) {
    if (pos_ + n > size_) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  const std::byte* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --------------------------------------------- BLASIDX2 shared helpers ---

/// Leaf layout of the SP tree — the one whose chain materializes records.
using SpLeaf = SpTree::LeafNode;

struct TailSegment {
  uint64_t first_page = 0;  // file page index
  uint64_t page_count = 0;
  uint64_t byte_length = 0;
};

/// Everything in the fixed header, in file order.
struct Header2 {
  uint32_t max_depth = 0;
  uint64_t node_count = 0;
  uint64_t tag_count = 0;
  uint64_t value_count = 0;
  uint64_t pool_pages = 0;
  uint64_t summary_count = 0;
  BPlusTreeMeta trees[4];
  uint32_t first_value_page = 0;
  uint32_t value_page_count = 0;
  TailSegment tags, summary, value_index;
};

void WriteTreeMeta(AtomicFile& os, const BPlusTreeMeta& m) {
  WriteU32(os, m.root);
  WriteU32(os, m.first_leaf);
  WriteU64(os, m.size);
  WriteU32(os, static_cast<uint32_t>(m.height));
  WriteU32(os, m.first_page);
  WriteU32(os, m.page_count);
  WriteU32(os, 0);  // pad
}

bool ReadTreeMeta(BufReader& r, BPlusTreeMeta* m) {
  // Initialized: a short read short-circuits the chain before r.U32(&height)
  // ever runs, and the assignment below happens regardless.
  uint32_t height = 0;
  uint32_t pad = 0;
  bool ok = r.U32(&m->root) && r.U32(&m->first_leaf) && r.U64(&m->size) &&
            r.U32(&height) && r.U32(&m->first_page) && r.U32(&m->page_count) &&
            r.U32(&pad);
  m->height = static_cast<int32_t>(height);
  return ok;
}

void WriteTailSegment(AtomicFile& os, const TailSegment& s) {
  WriteU64(os, s.first_page);
  WriteU64(os, s.page_count);
  WriteU64(os, s.byte_length);
}

bool ReadTailSegment(BufReader& r, TailSegment* s) {
  return r.U64(&s->first_page) && r.U64(&s->page_count) &&
         r.U64(&s->byte_length);
}

uint64_t PagesFor(uint64_t bytes) { return (bytes + kPageSize - 1) / kPageSize; }

/// Packs dictionary values (in id order) into value pages. A value longer
/// than kMaxPagedValue flushes the current page and gets a run of pages
/// to itself (see PagedDictLayout); every page of the run carries its id
/// in `first_ids`. Returns false when a run's end offset overflows u32.
bool BuildValuePages(const StringDict& dict, std::vector<Page>* pages,
                     std::vector<uint32_t>* first_ids) {
  std::vector<uint32_t> lens;  // current page's value sizes
  uint32_t page_first = 0;
  size_t byte_total = 0;
  auto flush = [&](uint32_t next_first) {
    Page page{};
    auto* header = page.As<ValuePageHeader>();
    header->count = static_cast<uint32_t>(lens.size());
    header->first_id = page_first;
    auto* offsets = reinterpret_cast<uint32_t*>(page.bytes.data() +
                                                sizeof(ValuePageHeader));
    uint32_t cursor = static_cast<uint32_t>(sizeof(ValuePageHeader) +
                                            (lens.size() + 1) * 4);
    for (size_t i = 0; i < lens.size(); ++i) {
      offsets[i] = cursor;
      const std::string& value = dict.Get(page_first +
                                          static_cast<uint32_t>(i));
      std::memcpy(page.bytes.data() + cursor, value.data(), value.size());
      cursor += static_cast<uint32_t>(value.size());
    }
    offsets[lens.size()] = cursor;
    first_ids->push_back(page_first);
    pages->push_back(page);
    lens.clear();
    byte_total = 0;
    page_first = next_first;
  };

  for (uint32_t id = 0; id < dict.size(); ++id) {
    const std::string& value = dict.Get(id);
    const size_t len = value.size();
    if (len > kMaxPagedValue) {
      if (!lens.empty()) flush(id);
      const uint64_t end = kOneValueHead + uint64_t{len};
      if (end > UINT32_MAX) return false;
      // Byte j of run page k is byte k * kPageSize + j of the span
      // [0, end): the head's header and offsets, then the value.
      for (uint64_t at = 0; at < end; at += kPageSize) {
        Page page{};
        if (at == 0) {
          auto* header = page.As<ValuePageHeader>();
          header->count = 1;
          header->first_id = id;
          auto* offsets = reinterpret_cast<uint32_t*>(
              page.bytes.data() + sizeof(ValuePageHeader));
          offsets[0] = kOneValueHead;
          offsets[1] = static_cast<uint32_t>(end);
        }
        const uint64_t from = std::max<uint64_t>(at, kOneValueHead);
        std::memcpy(page.bytes.data() + (from - at),
                    value.data() + (from - kOneValueHead),
                    std::min<uint64_t>(at + kPageSize, end) - from);
        first_ids->push_back(id);
        pages->push_back(page);
      }
      page_first = id + 1;
      continue;
    }
    // Fits if header + (count+2) offsets + bytes stay within the page.
    if (!lens.empty() &&
        sizeof(ValuePageHeader) + (lens.size() + 2) * 4 + byte_total + len >
            kPageSize) {
      flush(id);
    }
    lens.push_back(static_cast<uint32_t>(len));
    byte_total += len;
  }
  if (!lens.empty()) flush(0);
  return true;
}

Status CorruptPaged(const std::string& path, const std::string& what) {
  return Status::Corruption("BLASIDX2 " + what + " in " + path);
}

}  // namespace

// ------------------------------------------------------ BLASIDX2 write ---

Status SavePagedSnapshot(const PagedSnapshotParts& parts,
                         const std::string& path) {
  const NodeStore& store = *parts.store;
  const TagRegistry& tags = *parts.tags;
  const StringDict& dict = *parts.dict;
  const PagedStoreMeta store_meta = store.paged_meta();

  // Lay the dictionary out into value pages, in id (collation) order.
  std::vector<Page> value_pages;
  std::vector<uint32_t> first_ids;
  if (!BuildValuePages(dict, &value_pages, &first_ids)) {
    return Status::CapacityExceeded("a dictionary value exceeds 4 GiB");
  }

  // Flatten the path summary in preorder (parents precede children).
  std::vector<PagedSummaryEntry> summary;
  {
    struct Item {
      const SummaryNode* node;
      uint32_t parent;
    };
    std::vector<Item> stack;
    const SummaryNode* root = parts.summary->root();
    for (auto it = root->children.rbegin(); it != root->children.rend();
         ++it) {
      stack.push_back({it->get(), kNoParent});
    }
    while (!stack.empty()) {
      Item item = stack.back();
      stack.pop_back();
      uint32_t index = static_cast<uint32_t>(summary.size());
      summary.push_back({item.parent, item.node->tag, item.node->count});
      for (auto it = item.node->children.rbegin();
           it != item.node->children.rend(); ++it) {
        stack.push_back({it->get(), index});
      }
    }
  }

  // Tail segment sizes (needed up front: the header is page 0).
  uint64_t tag_bytes = 0;
  for (TagId id = 1; id <= tags.size(); ++id) {
    tag_bytes += 4 + tags.Name(id).size();
  }
  const uint64_t summary_bytes = summary.size() * kSummaryEntryBytes;
  const uint64_t vpi_bytes = first_ids.size() * sizeof(uint32_t);

  const uint64_t tree_pages = store_meta.tree_pages;
  const uint64_t pool_pages = tree_pages + value_pages.size();
  TailSegment tag_seg{1 + pool_pages, PagesFor(tag_bytes), tag_bytes};
  TailSegment sum_seg{tag_seg.first_page + tag_seg.page_count,
                      PagesFor(summary_bytes), summary_bytes};
  TailSegment vpi_seg{sum_seg.first_page + sum_seg.page_count,
                      PagesFor(vpi_bytes), vpi_bytes};

  AtomicFile os(path);
  if (!os.open()) {
    return Status::InvalidArgument("cannot open for write: " + path +
                                   ".tmp");
  }

  // --- header (file page 0) ---
  os.Write(kMagic2, sizeof(kMagic2));
  WriteU32(os, kVersion2);
  os.Write(&kEndianProbe, sizeof(kEndianProbe));  // native order, on purpose
  WriteU32(os, static_cast<uint32_t>(kPageSize));
  WriteU32(os, static_cast<uint32_t>(sizeof(NodeRecord)));
  WriteU32(os, static_cast<uint32_t>(sizeof(SpKey)));
  WriteU32(os, static_cast<uint32_t>(sizeof(SdKey)));
  WriteU32(os, static_cast<uint32_t>(sizeof(ValKey)));
  WriteU32(os, static_cast<uint32_t>(parts.max_depth));
  WriteU64(os, store_meta.record_count);
  WriteU64(os, tags.size());
  WriteU64(os, dict.size());
  WriteU64(os, pool_pages);
  WriteU64(os, summary.size());
  WriteTreeMeta(os, store_meta.sp);
  WriteTreeMeta(os, store_meta.sd);
  WriteTreeMeta(os, store_meta.value);
  WriteTreeMeta(os, store_meta.doc);
  WriteU32(os, static_cast<uint32_t>(tree_pages));
  WriteU32(os, static_cast<uint32_t>(value_pages.size()));
  WriteTailSegment(os, tag_seg);
  WriteTailSegment(os, sum_seg);
  WriteTailSegment(os, vpi_seg);
  os.PadToPage();

  // --- pool pages: the four trees, raw ---
  for (PageId pid = 0; pid < tree_pages; ++pid) {
    PageRef ref = store.pool().Peek(pid);
    if (!ref) return Status::Internal("unreadable pool page during save");
    os.Write(ref->bytes.data(), kPageSize);
  }
  // --- pool pages: value dictionary ---
  for (const Page& page : value_pages) {
    os.Write(page.bytes.data(), kPageSize);
  }

  // --- tail segments ---
  for (TagId id = 1; id <= tags.size(); ++id) {
    WriteString(os, tags.Name(id));
  }
  os.PadToPage();
  for (const PagedSummaryEntry& entry : summary) {
    WriteU32(os, entry.parent);
    WriteU32(os, entry.tag);
    WriteU64(os, entry.count);
  }
  os.PadToPage();
  for (uint32_t first : first_ids) WriteU32(os, first);
  os.PadToPage();

  return os.Commit();
}

// ------------------------------------------------------- BLASIDX2 open ---

Result<PagedFile> PagedIndex::OpenPool() const {
  return PagedFile::Open(path, kPageSize, pool_pages);
}

Result<PagedIndex> OpenPagedSnapshot(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::NotFound("cannot open: " + path);
  is.seekg(0, std::ios::end);
  const std::streamoff end_pos = is.tellg();
  if (end_pos < 0) return Status::Corruption("unsizable file: " + path);
  const uint64_t file_size = static_cast<uint64_t>(end_pos);
  if (file_size < kPageSize) return CorruptPaged(path, "truncated header");
  is.seekg(0, std::ios::beg);

  Page header_page;
  if (!is.read(reinterpret_cast<char*>(header_page.bytes.data()),
               kPageSize)) {
    return CorruptPaged(path, "unreadable header");
  }
  BufReader r(header_page.bytes.data(), kPageSize);

  char magic[8];
  if (!r.Raw(magic, 8) || std::memcmp(magic, kMagic2, 8) != 0) {
    return CorruptPaged(path, "bad magic");
  }
  uint32_t version, endian, page_size, rec_size, sp_size, sd_size, val_size;
  if (!r.U32(&version) || version != kVersion2) {
    return CorruptPaged(path, "unsupported version");
  }
  if (!r.Raw(&endian, 4) || endian != kEndianProbe) {
    return CorruptPaged(path, "endianness mismatch");
  }
  if (!r.U32(&page_size) || page_size != kPageSize) {
    return CorruptPaged(path, "page size mismatch");
  }
  if (!r.U32(&rec_size) || rec_size != sizeof(NodeRecord) ||
      !r.U32(&sp_size) || sp_size != sizeof(SpKey) ||
      !r.U32(&sd_size) || sd_size != sizeof(SdKey) ||
      !r.U32(&val_size) || val_size != sizeof(ValKey)) {
    return CorruptPaged(path, "record/key layout mismatch");
  }

  Header2 h;
  if (!r.U32(&h.max_depth) || !r.U64(&h.node_count) || !r.U64(&h.tag_count) ||
      !r.U64(&h.value_count) || !r.U64(&h.pool_pages) ||
      !r.U64(&h.summary_count)) {
    return CorruptPaged(path, "truncated header counts");
  }
  for (auto& tree : h.trees) {
    if (!ReadTreeMeta(r, &tree)) {
      return CorruptPaged(path, "truncated tree metadata");
    }
  }
  if (!r.U32(&h.first_value_page) || !r.U32(&h.value_page_count) ||
      !ReadTailSegment(r, &h.tags) || !ReadTailSegment(r, &h.summary) ||
      !ReadTailSegment(r, &h.value_index)) {
    return CorruptPaged(path, "truncated segment directory");
  }

  // ---- structural preflight: every range checked against the measured
  // file size (and against its own declared extent) before any allocation
  // sized by the file's claims. ----
  if (h.max_depth > 100000) return CorruptPaged(path, "absurd depth");
  if (h.node_count == 0) return CorruptPaged(path, "no records");
  const uint64_t file_pages = file_size / kPageSize;
  // Every count and byte length is bounded by the measured file size
  // FIRST, so none of the multiplications below can wrap and none of the
  // resize()/reserve() calls further down can be driven past it.
  if (h.node_count > file_size || h.tag_count > file_size ||
      h.value_count > file_size || h.summary_count > file_size ||
      h.tags.byte_length > file_size || h.summary.byte_length > file_size ||
      h.value_index.byte_length > file_size) {
    return CorruptPaged(path, "count exceeds file size");
  }
  if (h.pool_pages > file_pages || 1 + h.pool_pages > file_pages) {
    return CorruptPaged(path, "pool page range beyond file");
  }
  // Trees must tile a prefix of the pool page space in order, each laid
  // out as bulk loading lays it out (BulkShape): contiguous leaves first,
  // the root last (its key size sets each tree's fan-out). SP, SD and the
  // doc-order tree hold every record; the value tree holds the valued
  // ones (LoadSnapshot counts them).
  const TreeShape shapes[4] = {SpTree::BulkShape(h.trees[0].size),
                               SdTree::BulkShape(h.trees[1].size),
                               ValueTree::BulkShape(h.trees[2].size),
                               DocTree::BulkShape(h.trees[3].size)};
  uint64_t next_page = 0;
  for (size_t t = 0; t < 4; ++t) {
    const BPlusTreeMeta& tree = h.trees[t];
    if (tree.first_page != next_page) {
      return CorruptPaged(path, "tree segment not contiguous");
    }
    next_page += tree.page_count;
    if (t == 2 ? tree.size > h.node_count : tree.size != h.node_count) {
      return CorruptPaged(path, "tree size disagrees with record count");
    }
    if (tree.page_count != shapes[t].pages ||
        tree.height != shapes[t].height) {
      return CorruptPaged(path, "tree shape is not the bulk-load shape");
    }
    if (tree.size == 0) {
      if (tree.root != kInvalidPage || tree.first_leaf != kInvalidPage) {
        return CorruptPaged(path, "empty tree with a root");
      }
      continue;
    }
    const uint64_t tree_end = uint64_t{tree.first_page} + tree.page_count;
    if (tree_end > h.pool_pages || tree.first_leaf != tree.first_page ||
        uint64_t{tree.root} + 1 != tree_end) {
      return CorruptPaged(path, "tree root/leaf outside its segment");
    }
  }
  const uint64_t tree_pages = next_page;
  // The value pages must follow the trees and fill the pool.
  if (h.first_value_page != tree_pages ||
      uint64_t{h.first_value_page} + h.value_page_count != h.pool_pages) {
    return CorruptPaged(path, "dictionary segments do not tile the pool");
  }
  if ((h.value_count == 0) != (h.value_page_count == 0)) {
    return CorruptPaged(path, "value pages disagree with value count");
  }
  // Tail segments: in order, in bounds, byte lengths within their pages.
  uint64_t next_tail = 1 + h.pool_pages;
  for (const TailSegment* seg : {&h.tags, &h.summary, &h.value_index}) {
    if (seg->first_page != next_tail ||
        seg->page_count != PagesFor(seg->byte_length) ||
        seg->first_page + seg->page_count > file_pages) {
      return CorruptPaged(path, "tail segment out of bounds");
    }
    next_tail += seg->page_count;
  }
  // Count-vs-bytes preflight before any resize().
  if (h.tag_count * 4 > h.tags.byte_length ||
      h.summary_count * kSummaryEntryBytes != h.summary.byte_length ||
      h.value_page_count * sizeof(uint32_t) != h.value_index.byte_length) {
    return CorruptPaged(path, "segment byte length disagrees with count");
  }

  PagedIndex index;
  index.path = path;
  index.max_depth = static_cast<int>(h.max_depth);
  index.node_count = h.node_count;
  index.pool_pages = h.pool_pages;
  index.store_meta.sp = h.trees[0];
  index.store_meta.sd = h.trees[1];
  index.store_meta.value = h.trees[2];
  index.store_meta.doc = h.trees[3];
  index.store_meta.record_count = h.node_count;
  index.store_meta.tree_pages = tree_pages;
  index.dict_layout.count = h.value_count;
  index.dict_layout.first_value_page = h.first_value_page;
  index.dict_layout.value_page_count = h.value_page_count;

  // ---- eager tail segments ----
  auto read_tail = [&](const TailSegment& seg,
                       std::vector<char>* out) -> bool {
    out->resize(seg.byte_length);
    is.seekg(static_cast<std::streamoff>(seg.first_page * kPageSize),
             std::ios::beg);
    return seg.byte_length == 0 ||
           static_cast<bool>(is.read(out->data(),
                                     static_cast<std::streamsize>(
                                         seg.byte_length)));
  };

  std::vector<char> blob;
  if (!read_tail(h.tags, &blob)) return CorruptPaged(path, "short tag table");
  {
    BufReader tr(reinterpret_cast<const std::byte*>(blob.data()),
                 blob.size());
    index.tags.reserve(h.tag_count);
    for (uint64_t i = 0; i < h.tag_count; ++i) {
      uint32_t len;
      if (!tr.U32(&len) || len > blob.size()) {
        return CorruptPaged(path, "truncated tag table");
      }
      std::string name(len, '\0');
      if (!tr.Raw(name.data(), len)) {
        return CorruptPaged(path, "truncated tag name");
      }
      index.tags.push_back(std::move(name));
    }
  }

  if (!read_tail(h.summary, &blob)) {
    return CorruptPaged(path, "short summary segment");
  }
  {
    BufReader sr(reinterpret_cast<const std::byte*>(blob.data()),
                 blob.size());
    index.summary.reserve(h.summary_count);
    for (uint64_t i = 0; i < h.summary_count; ++i) {
      PagedSummaryEntry entry;
      if (!sr.U32(&entry.parent) || !sr.U32(&entry.tag) ||
          !sr.U64(&entry.count)) {
        return CorruptPaged(path, "truncated summary");
      }
      if (entry.parent != kNoParent && entry.parent >= i) {
        return CorruptPaged(path, "summary parent after child");
      }
      if (entry.tag == kSlashTag || entry.tag > h.tag_count) {
        return CorruptPaged(path, "summary tag out of range");
      }
      index.summary.push_back(entry);
    }
  }

  if (!read_tail(h.value_index, &blob)) {
    return CorruptPaged(path, "short value page index");
  }
  {
    BufReader vr(reinterpret_cast<const std::byte*>(blob.data()),
                 blob.size());
    index.dict_layout.page_first_ids.reserve(h.value_page_count);
    uint32_t prev = 0;
    for (uint64_t i = 0; i < h.value_page_count; ++i) {
      uint32_t first;
      if (!vr.U32(&first)) return CorruptPaged(path, "short value index");
      // Non-decreasing: the pages of a value run repeat its id.
      if ((i == 0 && first != 0) || first < prev || first >= h.value_count) {
        return CorruptPaged(path, "value page index out of order");
      }
      prev = first;
      index.dict_layout.page_first_ids.push_back(first);
    }
  }

  return index;
}

// ------------------------------------------------- BLASIDX2 materialize ---

Result<IndexSnapshot> LoadSnapshot(const std::string& path) {
  BLAS_ASSIGN_OR_RETURN(PagedIndex index, OpenPagedSnapshot(path));
  BLAS_ASSIGN_OR_RETURN(PagedFile pool, index.OpenPool());

  IndexSnapshot snapshot;
  snapshot.tags = std::move(index.tags);
  snapshot.max_depth = index.max_depth;

  // Walk the SP tree's leaf chain; every record lives there exactly once.
  snapshot.records.reserve(index.node_count);
  const BPlusTreeMeta& sp = index.store_meta.sp;
  const uint64_t sp_end = uint64_t{sp.first_page} + sp.page_count;
  Page page;
  PageId pid = sp.first_leaf;
  uint64_t pages_walked = 0;
  while (pid != kInvalidPage) {
    if (pid < sp.first_page || pid >= sp_end ||
        ++pages_walked > sp.page_count) {
      return CorruptPaged(path, "leaf chain escapes the sp segment");
    }
    BLAS_RETURN_NOT_OK(pool.Read(pid, &page));
    const auto* leaf = reinterpret_cast<const SpLeaf*>(page.bytes.data());
    using SpTree = BPlusTree<NodeRecord, SpKey, SpKeyOf>;
    if (leaf->is_leaf != 1 || leaf->count == 0 ||
        leaf->count > SpTree::kLeafCap ||
        snapshot.records.size() + leaf->count > index.node_count) {
      return CorruptPaged(path, "implausible leaf node");
    }
    snapshot.records.insert(snapshot.records.end(), leaf->records,
                            leaf->records + leaf->count);
    pid = leaf->next;
  }
  if (snapshot.records.size() != index.node_count) {
    return CorruptPaged(path, "leaf chain shorter than record count");
  }
  const uint64_t valued = static_cast<uint64_t>(std::count_if(
      snapshot.records.begin(), snapshot.records.end(),
      [](const NodeRecord& rec) { return rec.data != kNullData; }));
  if (valued != index.store_meta.value.size) {
    return CorruptPaged(path,
                        "value tree does not hold exactly the valued records");
  }

  // Decode every value-page group (a packed page or one value's run),
  // each starting at the next unread value id.
  const PagedDictLayout& dict = index.dict_layout;
  const std::vector<uint32_t>& firsts = dict.page_first_ids;
  snapshot.values.reserve(dict.count);
  for (size_t i = 0; i < firsts.size();) {
    const size_t group_end =
        std::upper_bound(firsts.begin() + i, firsts.end(), firsts[i]) -
        firsts.begin();
    const PageId head = dict.first_value_page + static_cast<PageId>(i);
    auto read = [&pool, head](uint32_t k, Page* out) {
      return pool.Read(head + k, out).ok();
    };
    if (firsts[i] != snapshot.values.size() ||
        !DecodeValuePages(firsts[i], static_cast<uint32_t>(group_end - i),
                          dict.count, read, &snapshot.values)) {
      return CorruptPaged(path, "corrupt value page");
    }
    i = group_end;
  }
  if (snapshot.values.size() != dict.count) {
    return CorruptPaged(path, "value pages shorter than value count");
  }
  // Ids are the collation order: every value strictly after the last (so
  // distinct too), or Find and the predicate intervals would misread them.
  if (std::adjacent_find(snapshot.values.begin(), snapshot.values.end(),
                         [](const std::string& a, const std::string& b) {
                           return !ValueCollate()(a, b);
                         }) != snapshot.values.end()) {
    return CorruptPaged(path, "values out of collation order");
  }
  return snapshot;
}

}  // namespace blas

// Fuzz target: BLASIDX2 snapshot preflight (header + segment directory),
// the full materialization of the page payloads, then the paged open
// itself.
//
// OpenPagedSnapshot validates the fixed header, tree metadata, and segment
// directory before anything sized by untrusted bytes is allocated — this
// target hammers exactly that boundary. When the directory does validate,
// LoadSnapshot walks every page payload (the SP leaf chain, packed value
// pages and value runs), so those bytes are fuzzed too. Then the target
// opens the pool and reads its first page: PagedFile::Open's size
// preflight must reject a file too short for its claimed pool pages (a
// truncated file behind a valid header) with a Status before any page is
// read. The contract: any byte string either opens or returns a non-OK
// Status; never a crash or unbounded allocation.

#include <cstddef>
#include <cstdint>

#include "fuzz/fuzz_util.h"
#include "storage/page.h"
#include "storage/persist.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string& path = blas_fuzz::WriteInput(data, size, "blasidx2");
  blas::Result<blas::PagedIndex> opened = blas::OpenPagedSnapshot(path);
  if (!opened.ok()) return 0;
  (void)blas::LoadSnapshot(path);

  // Valid directory: open the pool and read the first page, so a header
  // that overstates pool_pages against the file's real size must die in
  // the preflight.
  blas::Result<blas::PagedFile> file = opened->OpenPool();
  if (!file.ok()) return 0;
  blas::StorageOptions storage;
  storage.frames_per_shard = 4;
  storage.shards = 1;
  blas::BufferPool pool(std::move(file).value(), storage);
  if (pool.page_count() > 0) {
    blas::PageRef ref = pool.Fetch(0);
    (void)static_cast<bool>(ref);  // empty ref == end-of-data, also fine
  }
  return 0;
}

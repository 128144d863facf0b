// Regenerates the checked-in seed corpora under fuzz/corpus/. Run from
// the repo root after changing either on-disk format:
//
//   ./build/fuzz_make_corpus fuzz/corpus
//
// Seeds are the *interesting shapes*, not random bytes: a valid file, a
// crash-torn tail, flipped CRC/magic bits — the states recovery actually
// encounters — so the fuzzer starts at the format's edge cases instead of
// rediscovering the magic number one byte at a time.

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "blas/blas.h"
#include "ingest/manifest.h"

namespace {

void Mkdir(const std::string& p) { (void)::mkdir(p.c_str(), 0755); }

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  (void)std::fwrite(bytes.data(), 1, bytes.size(), f);
  (void)std::fclose(f);
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  (void)std::fclose(f);
  return out;
}

std::string ManifestHeader() {
  std::string h("BLASMAN1", 8);
  uint32_t version = 1;
  h.append(reinterpret_cast<const char*>(&version), 4);
  return h;
}

blas::ManifestRecord Record(uint64_t epoch, bool checkpoint,
                            std::initializer_list<blas::ManifestOp> ops) {
  blas::ManifestRecord r;
  r.epoch = epoch;
  r.checkpoint = checkpoint;
  r.ops = ops;
  return r;
}

void MakeManifestCorpus(const std::string& dir) {
  Mkdir(dir);
  using Kind = blas::ManifestOp::Kind;
  const std::string header = ManifestHeader();
  WriteFile(dir + "/empty_log.bin", header);

  std::string log = header;
  log += blas::EncodeManifestRecord(
      Record(1, false, {{Kind::kAdd, "a", "seg-000001.blasidx"}}));
  log += blas::EncodeManifestRecord(
      Record(2, false, {{Kind::kReplace, "a", "seg-000002.blasidx"},
                        {Kind::kAdd, "b", "seg-000003.blasidx"}}));
  WriteFile(dir + "/two_records.bin", log);

  std::string checkpointed = log;
  checkpointed += blas::EncodeManifestRecord(
      Record(3, true, {{Kind::kAdd, "a", "seg-000002.blasidx"},
                       {Kind::kAdd, "b", "seg-000003.blasidx"}}));
  checkpointed += blas::EncodeManifestRecord(Record(4, false, {{Kind::kRemove, "b", ""}}));
  WriteFile(dir + "/checkpoint_then_remove.bin", checkpointed);

  // Crash-torn tail: recovery must land on the previous record boundary.
  WriteFile(dir + "/torn_tail.bin", log.substr(0, log.size() - 7));

  // Length-complete record with bit rot: CRC must reject, not skip.
  std::string rotten = log;
  rotten[rotten.size() - 3] ^= 0x40;
  WriteFile(dir + "/crc_mismatch.bin", rotten);

  std::string bad_magic = log;
  bad_magic[0] ^= 0xFF;
  WriteFile(dir + "/bad_magic.bin", bad_magic);
}

void MakeBlasidx2Corpus(const std::string& dir) {
  Mkdir(dir);
  const char* xml =
      "<site><people><person id=\"p0\"><name>alice</name></person>"
      "<person id=\"p1\"><name>bob</name></person></people>"
      "<regions><asia><item id=\"i0\"/></asia></regions></site>";
  blas::Result<blas::BlasSystem> sys = blas::BlasSystem::FromXml(xml, {});
  if (!sys.ok()) {
    std::fprintf(stderr, "FromXml: %s\n", sys.status().ToString().c_str());
    std::exit(1);
  }
  const std::string valid_path = dir + "/valid_snapshot.bin";
  blas::Status saved = sys.value().SavePagedIndex(valid_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "SavePagedIndex: %s\n", saved.ToString().c_str());
    std::exit(1);
  }
  const std::string valid = ReadFile(valid_path);

  WriteFile(dir + "/header_only.bin", valid.substr(0, 64));
  WriteFile(dir + "/truncated_directory.bin",
            valid.substr(0, valid.size() / 2));

  std::string bad_magic = valid;
  bad_magic[0] ^= 0xFF;
  WriteFile(dir + "/bad_magic.bin", bad_magic);

  // Flip a byte inside the segment directory region (just past the fixed
  // header) so directory validation, not the magic check, does the work.
  std::string bad_directory = valid;
  bad_directory[80] ^= 0x55;
  WriteFile(dir + "/bad_directory.bin", bad_directory);

  // One 10,000-byte value: a run of two value pages.
  blas::Result<blas::BlasSystem> overflow = blas::BlasSystem::FromXml(
      "<site><item><note>" + std::string(10000, 'x') +
          "</note></item></site>",
      {});
  if (!overflow.ok() ||
      !overflow.value().SavePagedIndex(dir + "/overflow_value.bin").ok()) {
    std::fprintf(stderr, "overflow_value.bin: save failed\n");
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : "fuzz/corpus";
  Mkdir(root);
  MakeManifestCorpus(root + "/manifest");
  MakeBlasidx2Corpus(root + "/blasidx2");
  std::printf("corpus written under %s\n", root.c_str());
  return 0;
}

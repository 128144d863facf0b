// Standalone driver for the fuzz targets when libFuzzer is unavailable
// (GCC builds, the local ctest smoke). Feeds each argv file — typically
// the checked-in seed corpus — through LLVMFuzzerTestOneInput once. An
// argument that is not a regular file (a directory) is refused, exit 2.
// With -fsanitize=fuzzer (Clang CI) this file is not compiled; libFuzzer
// provides main().

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

int main(int argc, char** argv) {
  int ran = 0;
  for (int i = 1; i < argc; ++i) {
    // fopen succeeds on a directory, whose ftell is not a size.
    std::error_code ec;
    std::FILE* f = std::filesystem::is_regular_file(argv[i], ec)
                       ? std::fopen(argv[i], "rb")
                       : nullptr;
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 2;
    }
    std::fseek(f, 0, SEEK_END);
    long len = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> bytes(len > 0 ? static_cast<size_t>(len) : 0);
    if (!bytes.empty() && std::fread(bytes.data(), 1, bytes.size(), f) !=
                              bytes.size()) {
      std::fclose(f);
      std::fprintf(stderr, "short read on %s\n", argv[i]);
      return 2;
    }
    std::fclose(f);
    LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
    ++ran;
  }
  std::printf("ran %d corpus input(s)\n", ran);
  return 0;
}

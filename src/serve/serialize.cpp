#include "src/serve/serialize.hpp"

#include <cstring>
#include <ostream>
#include <string>
#include <utility>

#include "src/util/assertions.hpp"
#include "src/util/rng.hpp"

#if !defined(__unix__) && !defined(__APPLE__)
#error "pmte serving needs POSIX mmap (MappedFile)"
#endif
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pmte::serve {

namespace {

/// Padding bytes needed to advance `pos` to the next section boundary.
[[nodiscard]] constexpr std::size_t section_pad(std::uint64_t pos) noexcept {
  return static_cast<std::size_t>((kSectionAlign - pos % kSectionAlign) %
                                  kSectionAlign);
}

}  // namespace

std::uint64_t registry_fingerprint(const char (&magic)[8],
                                   std::uint64_t master_seed,
                                   std::uint64_t graph_fingerprint,
                                   std::uint64_t tree_count) noexcept {
  // Fold the serialized prelude word by word: the 8 magic bytes packed
  // explicitly little-endian (byte i into bits 8i — NOT a native-order
  // memcpy, which would make the fingerprint differ between hosts of
  // opposite endianness), then the header/identity words in the order
  // BinaryWriter emits them.
  std::uint64_t magic_word = 0;
  for (std::size_t i = 0; i < sizeof(magic); ++i) {
    magic_word |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(magic[i]))
                  << (8 * i);
  }
  std::uint64_t hash = fnv1a_fold(kFnv1aInit, magic_word);
  hash = fnv1a_fold(hash, kEndianProbe);
  hash = fnv1a_fold(hash, kFormatVersion);
  hash = fnv1a_fold(hash, master_seed);
  hash = fnv1a_fold(hash, graph_fingerprint);
  return fnv1a_fold(hash, tree_count);
}

LoadPathCounters& load_path_counters() noexcept {
  static LoadPathCounters counters;
  return counters;
}

void reset_load_path_counters() noexcept {
  load_path_counters() = LoadPathCounters{};
}

// --- BinaryWriter ----------------------------------------------------------

void BinaryWriter::bytes(const void* data, std::size_t n) {
  if (n == 0) return;  // data may be null for an empty array
  os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  PMTE_CHECK(os_.good(), "serve serialisation: write failed");
  pos_ += n;
}

void BinaryWriter::pad_to_section() {
  static constexpr char kZeros[kSectionAlign] = {};
  bytes(kZeros, section_pad(pos_));
}

void BinaryWriter::magic(const char (&m)[8]) {
  bytes(m, sizeof(m));
  u32(kEndianProbe);
  u32(kFormatVersion);
}

void BinaryWriter::u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
void BinaryWriter::u64(std::uint64_t v) { bytes(&v, sizeof(v)); }

template <typename T>
void BinaryWriter::section(std::span<const T> v) {
  u64(v.size());
  pad_to_section();
  bytes(v.data(), v.size() * sizeof(T));
}

void BinaryWriter::vec_u32(std::span<const std::uint32_t> v) { section(v); }
void BinaryWriter::vec_u64(std::span<const std::uint64_t> v) { section(v); }
void BinaryWriter::vec_f64(std::span<const double> v) { section(v); }

// --- MappedFile ------------------------------------------------------------

MappedFile::MappedFile(const std::string& path) {
  // O_NONBLOCK: a FIFO without a writer must fail the size check below at
  // once instead of blocking in open(2); regular files ignore the flag.
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  PMTE_CHECK(fd >= 0, "MappedFile: cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    PMTE_CHECK(false, "MappedFile: cannot stat (or empty file) " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the inode alive
  PMTE_CHECK(addr != MAP_FAILED, "MappedFile: mmap failed for " + path);
  addr_ = addr;
  size_ = size;
}

void MappedFile::unmap() noexcept {
  if (addr_ != nullptr) ::munmap(addr_, size_);
  addr_ = nullptr;
  size_ = 0;
}

MappedFile::~MappedFile() { unmap(); }

MappedFile::MappedFile(MappedFile&& o) noexcept
    : addr_(o.addr_), size_(o.size_) {
  o.addr_ = nullptr;
  o.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& o) noexcept {
  if (this != &o) {
    unmap();
    addr_ = o.addr_;
    size_ = o.size_;
    o.addr_ = nullptr;
    o.size_ = 0;
  }
  return *this;
}

// --- ImageReader -----------------------------------------------------------

ImageReader::ImageReader(std::span<const std::byte> image, Sections mode)
    : base_(image.data()), size_(image.size()), mode_(mode) {
  if (mode_ == Sections::view) {
    // The views below derive their element alignment from the base being
    // section-aligned; mmap's page alignment always satisfies this, a
    // sub-span or hand-built buffer might not.
    // pmte-lint: allow(pointer-hash-order: alignment probe of a fixed base, no ordering/hash on the value)
    PMTE_CHECK(reinterpret_cast<std::uintptr_t>(base_) % kSectionAlign == 0,
               "ImageReader: image base is not 64-byte aligned");
  }
}

void ImageReader::bytes(void* data, std::size_t n) {
  PMTE_CHECK(n <= size_ - pos_, "serve serialisation: truncated input");
  if (n == 0) return;
  std::memcpy(data, base_ + pos_, n);
  pos_ += n;
}

void ImageReader::expect_magic(const char (&m)[8]) {
  char got[8];
  bytes(got, sizeof(got));
  PMTE_CHECK(std::memcmp(got, m, sizeof(got)) == 0,
             "serve serialisation: bad magic (not a serving-layer file, or "
             "the wrong artefact kind)");
  const std::uint32_t probe = u32();
  PMTE_CHECK(probe == kEndianProbe,
             "serve serialisation: endianness mismatch");
  const std::uint32_t version = u32();
  PMTE_CHECK(version == kFormatVersion,
             "serve serialisation: unsupported format version " +
                 std::to_string(version) + " (this build reads only v" +
                 std::to_string(kFormatVersion) +
                 "; rebuild the artefact with the current writer)");
}

std::uint32_t ImageReader::u32() {
  std::uint32_t v;
  bytes(&v, sizeof(v));
  return v;
}

std::uint64_t ImageReader::u64() {
  std::uint64_t v;
  bytes(&v, sizeof(v));
  return v;
}

void ImageReader::skip_section_padding() {
  const std::size_t pad = section_pad(pos_);
  PMTE_CHECK(pad <= size_ - pos_, "serve serialisation: truncated input");
  pos_ += pad;  // content ignored; writers zero it
}

template <typename T>
ArraySection<T> ImageReader::section() {
  const std::uint64_t n = u64();
  skip_section_padding();
  PMTE_CHECK(n <= (size_ - pos_) / sizeof(T),
             "serve serialisation: length prefix exceeds remaining input");
  const auto count = static_cast<std::size_t>(n);
  const std::byte* payload = base_ + pos_;
  pos_ += count * sizeof(T);
  auto& counters = load_path_counters();
  if (mode_ == Sections::view) {
    ++counters.sections_mapped;
    return ArraySection<T>::mapped(
        {reinterpret_cast<const T*>(payload), count});
  }
  std::vector<T> own(count);
  if (count != 0) std::memcpy(own.data(), payload, count * sizeof(T));
  counters.bulk_bytes_copied += count * sizeof(T);
  ++counters.sections_copied;
  return ArraySection<T>(std::move(own));
}

ArraySection<std::uint32_t> ImageReader::vec_u32() {
  return section<std::uint32_t>();
}

ArraySection<std::uint64_t> ImageReader::vec_u64() {
  return section<std::uint64_t>();
}

ArraySection<double> ImageReader::vec_f64() { return section<double>(); }

void ImageReader::expect_end() const {
  const std::size_t extra = size_ - pos_;
  PMTE_CHECK(extra == 0, "serve serialisation: " + std::to_string(extra) +
                             " trailing byte(s) after the last array");
}

}  // namespace pmte::serve

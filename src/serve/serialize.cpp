#include "src/serve/serialize.hpp"

#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

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

/// The header block after the magic bytes, shared by both readers.
void check_header(std::uint32_t probe, std::uint32_t version) {
  PMTE_CHECK(probe == kEndianProbe,
             "serve serialisation: endianness mismatch");
  PMTE_CHECK(version == kFormatVersion,
             "serve serialisation: unsupported format version " +
                 std::to_string(version) + " (this build reads only v" +
                 std::to_string(kFormatVersion) +
                 "; rebuild the artefact with the current writer)");
}

/// An artefact ends with its last array; shared by both readers.
void check_no_trailing_bytes(std::uint64_t extra) {
  PMTE_CHECK(extra == 0, "serve serialisation: " + std::to_string(extra) +
                             " trailing byte(s) after the last array");
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
void BinaryWriter::f64(double v) { bytes(&v, sizeof(v)); }

void BinaryWriter::vec_u32(std::span<const std::uint32_t> v) {
  u64(v.size());
  pad_to_section();
  bytes(v.data(), v.size() * sizeof(std::uint32_t));
}

void BinaryWriter::vec_f64(std::span<const double> v) {
  u64(v.size());
  pad_to_section();
  bytes(v.data(), v.size() * sizeof(double));
}

// --- BinaryReader ----------------------------------------------------------

BinaryReader::BinaryReader(std::istream& is) : is_(is) {
  // One size probe per load: remember how many bytes lie between here and
  // the stream end, then track the running position — vec reads validate
  // their length prefix against (remaining_ - pos_) without any further
  // tellg/seekg round-trips.
  const auto cur = is_.tellg();
  if (cur != std::istream::pos_type(-1)) {
    is_.seekg(0, std::ios::end);
    const auto end = is_.tellg();
    is_.seekg(cur);
    if (end != std::istream::pos_type(-1) && end >= cur) {
      remaining_ = static_cast<std::uint64_t>(end - cur);
      size_known_ = true;
    }
  }
}

void BinaryReader::bytes(void* data, std::size_t n) {
  if (n == 0) return;  // data may be null for an empty array
  is_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  PMTE_CHECK(static_cast<std::size_t>(is_.gcount()) == n,
             "serve serialisation: truncated input");
  pos_ += n;
}

void BinaryReader::expect_magic(const char (&m)[8]) {
  char got[8];
  bytes(got, sizeof(got));
  PMTE_CHECK(std::memcmp(got, m, sizeof(got)) == 0,
             "serve serialisation: bad magic (not a serving-layer file, or "
             "the wrong artefact kind)");
  const std::uint32_t probe = u32();
  check_header(probe, u32());
}

std::uint32_t BinaryReader::u32() {
  std::uint32_t v;
  bytes(&v, sizeof(v));
  return v;
}

std::uint64_t BinaryReader::u64() {
  std::uint64_t v;
  bytes(&v, sizeof(v));
  return v;
}

double BinaryReader::f64() {
  double v;
  bytes(&v, sizeof(v));
  return v;
}

void BinaryReader::skip_section_padding() {
  char sink[kSectionAlign];
  bytes(sink, section_pad(pos_));  // content ignored; writers zero it
}

void BinaryReader::check_capacity(std::uint64_t n, std::size_t elem_size) {
  if (size_known_) {
    const std::uint64_t avail = remaining_ - pos_;
    PMTE_CHECK(n <= avail / elem_size,
               "serve serialisation: length prefix exceeds remaining input");
    return;
  }
  // Non-seekable stream: fall back to a hard cap (2^28 elements ≈ 2 GiB
  // of doubles — far above any real index, far below an OOM-killer trip).
  PMTE_CHECK(n <= (1ULL << 28), "serve serialisation: absurd array length");
}

std::vector<std::uint32_t> BinaryReader::vec_u32() {
  const std::uint64_t n = u64();
  skip_section_padding();
  check_capacity(n, sizeof(std::uint32_t));
  std::vector<std::uint32_t> v(n);
  bytes(v.data(), v.size() * sizeof(std::uint32_t));
  load_path_counters().bulk_bytes_copied += n * sizeof(std::uint32_t);
  ++load_path_counters().sections_copied;
  return v;
}

std::vector<double> BinaryReader::vec_f64() {
  const std::uint64_t n = u64();
  skip_section_padding();
  check_capacity(n, sizeof(double));
  std::vector<double> v(n);
  bytes(v.data(), v.size() * sizeof(double));
  load_path_counters().bulk_bytes_copied += n * sizeof(double);
  ++load_path_counters().sections_copied;
  return v;
}

void BinaryReader::expect_end() {
  std::uint64_t extra = 0;
  if (size_known_) {
    extra = remaining_ - pos_;
  } else if (is_.peek() != std::istream::traits_type::eof()) {
    is_.ignore(std::numeric_limits<std::streamsize>::max());
    extra = static_cast<std::uint64_t>(is_.gcount());
  }
  check_no_trailing_bytes(extra);
}

// --- MappedFile ------------------------------------------------------------

MappedFile::MappedFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
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

// --- MappedReader ----------------------------------------------------------

MappedReader::MappedReader(std::span<const std::byte> image)
    : base_(image.data()), size_(image.size()) {
  PMTE_CHECK(base_ != nullptr && size_ > 0,
             "MappedReader: empty image");
  // The zero-copy views below derive their element alignment from the
  // base being section-aligned; mmap's page alignment always satisfies
  // this, a sub-span or hand-built buffer might not.
  // pmte-lint: allow(pointer-hash-order: alignment probe of a fixed base, no ordering/hash on the value)
  PMTE_CHECK(reinterpret_cast<std::uintptr_t>(base_) % kSectionAlign == 0,
             "MappedReader: image base is not 64-byte aligned");
}

void MappedReader::bytes(void* data, std::size_t n) {
  PMTE_CHECK(n <= size_ - pos_, "serve serialisation: truncated input");
  if (n == 0) return;
  std::memcpy(data, base_ + pos_, n);
  pos_ += n;
}

void MappedReader::expect_magic(const char (&m)[8]) {
  char got[8];
  bytes(got, sizeof(got));
  PMTE_CHECK(std::memcmp(got, m, sizeof(got)) == 0,
             "serve serialisation: bad magic (not a serving-layer file, or "
             "the wrong artefact kind)");
  const std::uint32_t probe = u32();
  check_header(probe, u32());
}

std::uint32_t MappedReader::u32() {
  std::uint32_t v;
  bytes(&v, sizeof(v));
  return v;
}

std::uint64_t MappedReader::u64() {
  std::uint64_t v;
  bytes(&v, sizeof(v));
  return v;
}

double MappedReader::f64() {
  double v;
  bytes(&v, sizeof(v));
  return v;
}

void MappedReader::skip_section_padding() {
  const std::size_t pad = section_pad(pos_);
  PMTE_CHECK(pad <= size_ - pos_, "serve serialisation: truncated input");
  pos_ += pad;
}

std::span<const std::uint32_t> MappedReader::view_u32() {
  const std::uint64_t n = u64();
  skip_section_padding();
  PMTE_CHECK(pos_ % kSectionAlign == 0,
             "serve serialisation: misaligned section");
  PMTE_CHECK(n <= (size_ - pos_) / sizeof(std::uint32_t),
             "serve serialisation: length prefix exceeds remaining input");
  const auto* p = reinterpret_cast<const std::uint32_t*>(base_ + pos_);
  pos_ += n * sizeof(std::uint32_t);
  ++load_path_counters().sections_mapped;
  return {p, static_cast<std::size_t>(n)};
}

std::span<const double> MappedReader::view_f64() {
  const std::uint64_t n = u64();
  skip_section_padding();
  PMTE_CHECK(pos_ % kSectionAlign == 0,
             "serve serialisation: misaligned section");
  PMTE_CHECK(n <= (size_ - pos_) / sizeof(double),
             "serve serialisation: length prefix exceeds remaining input");
  const auto* p = reinterpret_cast<const double*>(base_ + pos_);
  pos_ += n * sizeof(double);
  ++load_path_counters().sections_mapped;
  return {p, static_cast<std::size_t>(n)};
}

void MappedReader::expect_end() const { check_no_trailing_bytes(size_ - pos_); }

}  // namespace pmte::serve

#pragma once
// Versioned binary (de)serialisation for the serving layer.
//
// The format is deliberately dumb: an 8-byte magic string, a u32 endian
// probe and a u32 format version, then u64 scalars (an ensemble's identity
// words) and length-prefixed flat arrays written as raw bytes.  Doubles
// occur only inside arrays and round-trip bit-exactly (the differential
// suites pin save→load→query identity), and fixed-width integer types
// keep the layout unambiguous.
// Byte order is the native one; a u32 probe word after the magic rejects
// files from a machine of the opposite endianness instead of silently
// mis-reading them.  Exactly one version is readable, kFormatVersion:
// bumping it invalidates old files — the reader refuses anything else
// rather than guessing.
//
// Every array payload is aligned to a 64-byte file offset (the length
// prefix is followed by zero padding).  That buys the zero-copy path:
// MappedFile mmaps an artefact and ImageReader returns spans that point
// straight into the mapping — cache-line- (and therefore element-)
// aligned, so FrtIndex can serve off the file image without copying a
// byte.  ImageReader is the only parser of artefact bytes; the copying
// load runs the same parse and copies the sections out instead.
//
// The normative byte-level specification (field order, alignment rules,
// rejection rules, version history) lives in docs/FORMAT.md; keep the two
// in sync when changing anything here or in FrtIndex/FrtEnsemble::save.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/util/types.hpp"

namespace pmte::serve {

/// Format version shared by all serving-layer artefacts (the ensemble and
/// its embedded indices), the only one the reader accepts.  History: docs/FORMAT.md.
inline constexpr std::uint32_t kFormatVersion = 6;

/// File-offset alignment of every vec payload.  One cache line,
/// and a multiple of every element size we serialise — mmap returns
/// page-aligned bases, so a 64-byte file offset is a 64-byte address.
inline constexpr std::size_t kSectionAlign = 64;

/// Endianness probe written after each magic; reads back differently when
/// the producing machine's byte order does not match.
inline constexpr std::uint32_t kEndianProbe = 0x01020304U;

inline constexpr char kIndexMagic[8] = {'P', 'M', 'T', 'E', 'I', 'D', 'X', '1'};
inline constexpr char kEnsembleMagic[8] = {'P', 'M', 'T', 'E', 'E', 'N', 'S', '1'};

/// Registry fingerprint of a serving artefact: 64-bit FNV-1a over the
/// words of its serialized prelude — the 16-byte header (magic bytes,
/// endian probe, format version) followed by the identity words that open
/// the payload (for an ensemble: master seed, graph fingerprint, tree
/// count).  Two artefacts share a fingerprint iff they agree on artefact
/// kind, format version, source graph, master seed, and tree count — the
/// exact tuple that makes a deterministic build reproducible — so the
/// fingerprint is a content identity, not a file hash: it is the same
/// whether the ensemble was just built or reloaded from disk.  The magic
/// bytes fold as an explicitly little-endian word, so the value is
/// host-independent (test_server pins it).  The many-tenant server keys
/// its EnsembleRegistry on this value (src/serve/server.hpp);
/// docs/FORMAT.md documents the derivation.  Callers pass the identity
/// words in serialized order.
[[nodiscard]] std::uint64_t registry_fingerprint(
    const char (&magic)[8], std::uint64_t master_seed,
    std::uint64_t graph_fingerprint, std::uint64_t tree_count) noexcept;

/// Deterministic accounting of the load path: how many vec-section payload
/// bytes were memcpy'd into owned storage versus served straight from a
/// mapping.  A mapped load of the persisted FrtIndex arrays must report
/// zero copied bytes — bench_serve emits these counters and the CI gate
/// pins them (BENCH_serve.json).  Process-wide and NOT synchronised: loads
/// are single-threaded, reset before measuring.
struct LoadPathCounters {
  std::uint64_t bulk_bytes_copied = 0;  ///< vec payload bytes copied
  std::uint64_t sections_copied = 0;    ///< vec sections read by copy
  std::uint64_t sections_mapped = 0;    ///< vec sections served zero-copy
};
[[nodiscard]] LoadPathCounters& load_path_counters() noexcept;
void reset_load_path_counters() noexcept;

/// Owned-or-mapped read-only array.  The serving indices store their
/// persisted arrays through this: a loaded-by-copy (or freshly built)
/// section owns a vector; a mapped section views the file image and owns
/// nothing.  Copying always deep-copies into owned storage (so copies
/// never dangle when a mapping goes away); moving preserves the view
/// (std::vector's move keeps the heap buffer alive).  Equality compares
/// contents, mirroring the vector semantics it replaces.
template <typename T>
class ArraySection {
 public:
  ArraySection() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): vector is the natural source
  ArraySection(std::vector<T> own) noexcept
      : own_(std::move(own)), view_(own_) {}

  /// A section viewing externally owned memory (the caller keeps the
  /// backing mapping alive for the section's lifetime).
  [[nodiscard]] static ArraySection mapped(std::span<const T> view) noexcept {
    ArraySection s;
    s.view_ = view;
    return s;
  }

  ArraySection(const ArraySection& o) : own_(o.begin(), o.end()), view_(own_) {}
  ArraySection& operator=(const ArraySection& o) {
    if (this != &o) {
      own_.assign(o.begin(), o.end());
      view_ = own_;
    }
    return *this;
  }
  ArraySection(ArraySection&& o) noexcept
      : own_(std::move(o.own_)), view_(o.view_) {
    o.view_ = {};
    o.own_.clear();
  }
  ArraySection& operator=(ArraySection&& o) noexcept {
    if (this != &o) {
      own_ = std::move(o.own_);
      view_ = o.view_;
      o.view_ = {};
      o.own_.clear();
    }
    return *this;
  }
  ~ArraySection() = default;

  [[nodiscard]] std::span<const T> view() const noexcept { return view_; }
  // NOLINTNEXTLINE(google-explicit-constructor): sections read as spans
  operator std::span<const T>() const noexcept { return view_; }
  [[nodiscard]] const T* data() const noexcept { return view_.data(); }
  [[nodiscard]] std::size_t size() const noexcept { return view_.size(); }
  [[nodiscard]] bool empty() const noexcept { return view_.empty(); }
  [[nodiscard]] const T& operator[](std::size_t i) const { return view_[i]; }
  [[nodiscard]] const T& front() const { return view_.front(); }
  [[nodiscard]] const T* begin() const noexcept { return view_.data(); }
  [[nodiscard]] const T* end() const noexcept {
    return view_.data() + view_.size();
  }
  /// Whether the section views memory it does not own (a file mapping).
  [[nodiscard]] bool is_mapped() const noexcept {
    return view_.data() != nullptr && view_.data() != own_.data();
  }

  friend bool operator==(const ArraySection& a, const ArraySection& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  std::vector<T> own_;
  std::span<const T> view_;
};

class BinaryWriter {
 public:
  /// The writer must start at the artefact's first byte: padding is
  /// computed from the bytes written so far, so artefacts meant for mmap
  /// must start at file offset 0.
  explicit BinaryWriter(std::ostream& os) : os_(os) {}

  void magic(const char (&m)[8]);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void vec_u32(std::span<const std::uint32_t> v);
  void vec_u64(std::span<const std::uint64_t> v);
  void vec_f64(std::span<const double> v);
  void vec_u32(std::initializer_list<std::uint32_t> v) {
    vec_u32(std::span<const std::uint32_t>(v.begin(), v.size()));
  }
  void vec_u64(std::initializer_list<std::uint64_t> v) {
    vec_u64(std::span<const std::uint64_t>(v.begin(), v.size()));
  }
  void vec_f64(std::initializer_list<double> v) {
    vec_f64(std::span<const double>(v.begin(), v.size()));
  }

 private:
  void bytes(const void* data, std::size_t n);
  /// Zero-fill up to the next kSectionAlign boundary.
  void pad_to_section();
  template <typename T>
  void section(std::span<const T> v);
  std::ostream& os_;
  std::uint64_t pos_ = 0;
};

/// RAII read-only file mapping (POSIX mmap).  The mapped address stays
/// valid across moves — spans into the mapping survive as long as some
/// MappedFile owns it.
class MappedFile {
 public:
  MappedFile() = default;
  /// Map `path` read-only; throws (PMTE_CHECK) on open/map failure or an
  /// empty file.  Anything without a size to map — a device, a FIFO (even
  /// one no writer has opened) — counts as empty and is refused at once.
  explicit MappedFile(const std::string& path);
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& o) noexcept;
  MappedFile& operator=(MappedFile&& o) noexcept;

  [[nodiscard]] const std::byte* data() const noexcept {
    return static_cast<const std::byte*>(addr_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {data(), size_};
  }

 private:
  void unmap() noexcept;
  void* addr_ = nullptr;
  std::size_t size_ = 0;
};

/// The one parser of artefact bytes, over an in-memory image (a file
/// mapping or any byte buffer).  Every read PMTE_CHECKs that the image
/// still holds its bytes, magic/probe/version mismatches throw, and a
/// length prefix is checked against the bytes left before anything is
/// allocated or viewed for it.  Array sections come back
///   view — as spans into the image (zero bytes copied; counted in
///          sections_mapped).  Needs a 64-byte-aligned base, which mmap
///          always gives, so every 64-byte payload offset is an aligned
///          address; the caller keeps the image alive while views are used.
///   copy — as owned vectors (counted in sections_copied and
///          bulk_bytes_copied).  Any base will do, and the caller may drop
///          the image once the load returns.
class ImageReader {
 public:
  enum class Sections { view, copy };

  ImageReader(std::span<const std::byte> image, Sections mode);

  void expect_magic(const char (&m)[8]);
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] ArraySection<std::uint32_t> vec_u32();
  [[nodiscard]] ArraySection<std::uint64_t> vec_u64();
  [[nodiscard]] ArraySection<double> vec_f64();
  /// Bytes not yet read.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - pos_;
  }
  /// Reject any byte after the artefact's last array (the message names
  /// the count).
  void expect_end() const;

 private:
  void bytes(void* data, std::size_t n);
  /// Skip the padding up to the next kSectionAlign boundary.
  void skip_section_padding();
  template <typename T>
  [[nodiscard]] ArraySection<T> section();
  const std::byte* base_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  Sections mode_;
};

}  // namespace pmte::serve

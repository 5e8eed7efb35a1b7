// Binary format + zero-copy load path: section alignment invariants,
// loader hostility (truncation, bad magic, endianness, other versions,
// corrupt lengths, an impossible tree count, shaved padding, misaligned
// bases, a writerless FIFO, LCA codes that do not describe an FRT tree) on
// BOTH the copying and the mmap path, a seeded bit-flip/truncation fuzz
// sweep pinning "reject or load, never crash", and a corpus-wide
// differential that pins mapped and copied loads to bit-identical served
// doubles and logical counters at several thread counts.  The
// registry/swap lifetime test leans on ASan: any read of a retired mapping
// is a use-after-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "src/frt/frt_tree.hpp"
#include "src/frt/le_lists.hpp"
#include "src/graph/generators.hpp"
#include "src/parallel/parallel.hpp"
#include "src/serve/frt_ensemble.hpp"
#include "src/serve/frt_index.hpp"
#include "src/serve/serialize.hpp"
#include "src/serve/server.hpp"
#include "src/serve/workloads.hpp"
#include "src/util/rng.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/reference.hpp"

namespace pmte {
namespace {

serve::EnsembleOptions tiny_options(std::size_t trees) {
  serve::EnsembleOptions opts;
  opts.trees = trees;
  opts.pipeline = serve::EnsemblePipeline::direct;
  return opts;
}

/// Serialized bytes of an ensemble.
std::string save_bytes(const serve::FrtEnsemble& e) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  e.save(buf);
  return buf.str();
}

serve::FrtEnsemble load_copied(const std::string& bytes) {
  return serve::FrtEnsemble::load(std::as_bytes(std::span(bytes)));
}

/// Write bytes to a temp file (current dir; ctest runs each suite in its
/// own process, so the suite-unique names below never collide).
class TempFile {
 public:
  TempFile(std::string name, const std::string& bytes)
      : path_(std::move(name)) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Both load paths must reject the image (the mapped path may reject at
/// mapping time already, e.g. for an empty file).  A non-empty `reason`
/// must appear in both error messages.
void expect_rejected_both(const std::string& bytes, const std::string& why,
                          const std::string& reason = "") {
  const TempFile f("test_serialize_hostile.tmp", bytes);
  const auto expect_reason = [&](const auto& load, const char* path) {
    try {
      (void)load();
      ADD_FAILURE() << why << ": the " << path << " reader loaded the image";
    } catch (const std::logic_error& err) {
      EXPECT_NE(std::string(err.what()).find(reason), std::string::npos)
          << why << " (" << path << "): " << err.what();
    }
  };
  expect_reason([&] { return load_copied(bytes); }, "copying");
  expect_reason([&] { return serve::FrtEnsemble::load_mapped(f.path()); },
                "mapped");
}

class ThreadGuard {
 public:
  ThreadGuard() : saved_(num_threads()) {}
  ~ThreadGuard() { set_num_threads(saved_); }

 private:
  int saved_;
};

constexpr std::size_t kPad64Base = 64;
std::size_t pad64(std::size_t pos) {
  return (kPad64Base - pos % kPad64Base) % kPad64Base;
}

TEST(Serialize, PrimitivesAndEmptyArraysRoundTrip) {
  // The writer/reader primitives, including the n == 0 edge: an empty
  // array's data() may be null, and neither side may touch it (the
  // section padding is still emitted, keeping the layout walkable).  Both
  // section modes read the same values; only views leave them in place.
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  serve::BinaryWriter w(buf);
  w.magic(serve::kIndexMagic);
  w.u32(7);
  w.u64(0xfeedfacecafebeefULL);
  w.f64(2.5);
  w.vec_u32(std::vector<std::uint32_t>{});
  w.vec_f64({1.5, -2.25});
  w.vec_u32({3, 2, 1});
  w.vec_u64({std::uint64_t{1} << 40, 9});
  const std::string bytes = buf.str();
  // View mode needs a 64-byte-aligned base: read the views off a mapping.
  const TempFile f("test_serialize_primitives.tmp", bytes);
  const serve::MappedFile file(f.path());

  for (const auto mode : {serve::ImageReader::Sections::copy,
                          serve::ImageReader::Sections::view}) {
    const bool view = mode == serve::ImageReader::Sections::view;
    serve::reset_load_path_counters();
    serve::ImageReader r(
        view ? file.bytes() : std::as_bytes(std::span(bytes)), mode);
    r.expect_magic(serve::kIndexMagic);
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_EQ(r.u64(), 0xfeedfacecafebeefULL);
    EXPECT_EQ(r.f64(), 2.5);
    EXPECT_TRUE(r.vec_u32().empty());
    const auto doubles = r.vec_f64();
    EXPECT_EQ(std::vector<double>(doubles.begin(), doubles.end()),
              (std::vector<double>{1.5, -2.25}));
    EXPECT_EQ(doubles.is_mapped(), view);
    const auto ints = r.vec_u32();
    EXPECT_EQ(std::vector<std::uint32_t>(ints.begin(), ints.end()),
              (std::vector<std::uint32_t>{3, 2, 1}));
    const auto words = r.vec_u64();
    EXPECT_EQ(std::vector<std::uint64_t>(words.begin(), words.end()),
              (std::vector<std::uint64_t>{std::uint64_t{1} << 40, 9}));
    EXPECT_EQ(words.is_mapped(), view);
    EXPECT_EQ(r.remaining(), 0u);
    r.expect_end();
    const auto& lc = serve::load_path_counters();
    EXPECT_EQ(lc.sections_mapped, view ? 4u : 0u);
    EXPECT_EQ(lc.sections_copied, view ? 0u : 4u);
    EXPECT_EQ(lc.bulk_bytes_copied, view ? 0u : 2u * 8u + 3u * 4u + 2u * 8u);
  }
}

TEST(Serialize, PayloadsSitAt64ByteOffsetsWithZeroPadding) {
  const auto g = test::support_graph("gnm", 48, 51);
  const auto e = serve::FrtEnsemble::build(g, 51, tiny_options(2));
  const std::string bytes = save_bytes(e);

  // Walk the normative layout (docs/FORMAT.md): ensemble prelude, then
  // per index the scalar block and four length-prefixed sections whose
  // payloads must each start at a 64-byte file offset, preceded by zero
  // padding only.
  // Prelude: magic block(16) + master seed(8) + graph fingerprint(8) +
  // tree count(8).
  std::size_t pos = 16 + 8 + 8 + 8;
  std::uint64_t trees = 0;
  std::memcpy(&trees, bytes.data() + 16 + 8 + 8, sizeof(trees));
  ASSERT_EQ(trees, 2u);
  // widths, codes, dist table, edge weights
  const std::size_t elem[4] = {4, 8, 8, 8};
  for (std::uint64_t t = 0; t < trees; ++t) {
    pos += 16 + 4 + 8;  // index magic block + levels + beta
    for (const std::size_t es : elem) {
      std::uint64_t len = 0;
      ASSERT_LE(pos + 8, bytes.size());
      std::memcpy(&len, bytes.data() + pos, sizeof(len));
      pos += 8;
      const std::size_t pad = pad64(pos);
      for (std::size_t i = 0; i < pad; ++i) {
        ASSERT_EQ(bytes[pos + i], '\0') << "padding byte not zero";
      }
      pos += pad;
      EXPECT_EQ(pos % 64, 0u) << "payload misaligned";
      pos += static_cast<std::size_t>(len) * es;
    }
  }
  EXPECT_EQ(pos, bytes.size()) << "layout walk must consume the artefact";
}

TEST(Serialize, HostileImagesAreRejectedOnBothPaths) {
  const auto g = test::support_graph("gnm", 40, 57);
  const auto e = serve::FrtEnsemble::build(g, 57, tiny_options(2));
  const std::string good = save_bytes(e);
  ASSERT_TRUE(load_copied(good) == e) << "baseline artefact must load";

  // Truncations at a spread of prefix lengths, including 0, mid-header,
  // mid-padding, mid-payload, and one byte short.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{20}, std::size_t{70},
        std::size_t{100}, good.size() / 3, good.size() / 2,
        good.size() - 9, good.size() - 1}) {
    expect_rejected_both(good.substr(0, keep),
                         "truncated to " + std::to_string(keep));
  }

  // Wrong artefact kind / corrupted magic byte.
  std::string bad = good;
  bad[0] = 'X';
  expect_rejected_both(bad, "corrupt magic");

  // Opposite-endianness probe (a byte-swapped u32 at offset 8).
  bad = good;
  std::swap(bad[8], bad[11]);
  std::swap(bad[9], bad[10]);
  expect_rejected_both(bad, "foreign endianness");

  // kFormatVersion is the only readable version: older artefacts (v3 held
  // an Euler tour and leaf positions, v4 ancestor rows) and newer ones are
  // refused by name.
  for (const std::uint32_t v : {1U, 2U, 3U, 4U, serve::kFormatVersion + 1}) {
    bad = good;
    std::memcpy(bad.data() + 12, &v, sizeof(v));
    expect_rejected_both(bad, "version " + std::to_string(v),
                         "unsupported format version " + std::to_string(v));
  }

  // Oversized length prefix on the first vec section (ensemble prelude 40
  // bytes + index magic block 16 + levels 4 + beta 8).
  bad = good;
  const std::uint64_t absurd = 1ULL << 33;
  std::memcpy(bad.data() + 40 + 16 + 4 + 8, &absurd, sizeof(absurd));
  expect_rejected_both(bad, "absurd length prefix");

  // Shaved padding: removing 8 zero bytes from the first padding run
  // desyncs every later offset; both readers must fail closed, not serve
  // shifted garbage.  The first prefix ends at 76, so padding runs to the
  // next 64-byte boundary (128).
  ASSERT_EQ(good[76], '\0') << "layout drifted; fix the padding offset";
  bad = good.substr(0, 76) + good.substr(84);
  expect_rejected_both(bad, "shaved section padding");

  // Bytes after the last array: appended text, and a second artefact
  // concatenated to the first (which would otherwise load as the first).
  expect_rejected_both(good + "appended by some other tool\n",
                       "28 appended bytes", "28 trailing byte(s)");
  expect_rejected_both(good + good, "doubled artefact",
                       std::to_string(good.size()) + " trailing byte(s)");

  // A 40-byte prelude that claims 2^20 trees and holds no index: the
  // count is refused before anything is reserved for it (each embedded
  // index takes at least 60 bytes).
  std::stringstream prelude(std::ios::in | std::ios::out | std::ios::binary);
  serve::BinaryWriter pw(prelude);
  pw.magic(serve::kEnsembleMagic);
  pw.u64(1);  // master seed
  pw.u64(2);  // graph fingerprint
  pw.u64(std::uint64_t{1} << 20);  // tree count
  ASSERT_EQ(prelude.str().size(), 40u);
  expect_rejected_both(prelude.str(), "2^20 trees in 40 bytes",
                       "tree count 1048576 cannot fit");
}

/// A one-tree ensemble image around hand-written LCA codes of a 4-level
/// tree (n = codes / words; edge weights 1, 2, 4, 8, so the LCA table is
/// 0, 2, 6, 14).
std::string crafted_ensemble(const std::vector<std::uint32_t>& widths,
                             const std::vector<std::uint64_t>& codes) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  serve::BinaryWriter w(buf);
  w.magic(serve::kEnsembleMagic);
  w.u64(1);  // master seed
  w.u64(2);  // graph fingerprint
  w.u64(1);  // tree count
  w.magic(serve::kIndexMagic);
  w.u32(4);    // levels
  w.f64(1.5);  // beta
  w.vec_u32(widths);
  w.vec_u64(codes);
  w.vec_f64({0.0, 2.0, 6.0, 14.0});
  w.vec_f64({1.0, 2.0, 4.0, 8.0});
  return buf.str();
}

TEST(Serialize, CodesThatAreNotAnFrtTreeAreRejectedOnBothPaths) {
  // The valid tree: the root has two children, the first of them two and
  // the second one, and the last level-1 node has two leaves.  One bit per
  // level below the root (level 0 lowest): codes 000, 010, 100, 101.  The
  // walk numbers the nodes root 0; 1, 2, 3 (vertex 0); 4, 5 (vertex 1);
  // 6, 7, 8 (vertex 2); 9 (vertex 3).
  const std::vector<std::uint32_t> widths = {1, 1, 1, 0};
  const std::string valid = crafted_ensemble(widths, {0, 2, 4, 5});
  const auto loaded = load_copied(valid);
  ASSERT_EQ(loaded.num_vertices(), 4u) << "the crafted baseline must load";
  const auto& idx = loaded.index(0);
  EXPECT_EQ(idx.num_nodes(), 10u);
  EXPECT_EQ(idx.lca(2, 3), 7u);
  EXPECT_EQ(idx.lca(0, 1), 1u);
  EXPECT_EQ(idx.lca(0, 3), 0u);
  EXPECT_EQ(idx.leaf_node(1), 5u);
  EXPECT_EQ(idx.distance(2, 3), 2.0);
  EXPECT_EQ(idx.distance(0, 1), 6.0);
  EXPECT_EQ(idx.distance(0, 2), 14.0);
  ASSERT_EQ(idx.children(7).size(), 2u);
  EXPECT_EQ(idx.children(7)[1], 9u);

  // Each image breaks one rule; every rule is named by the message.
  expect_rejected_both(crafted_ensemble(widths, {0, 2, 4, 5, 5}),
                       "vertices 3 and 4 share code 101",
                       "two vertices share a code");
  expect_rejected_both(crafted_ensemble(widths, {2, 0, 4, 5}),
                       "child 1 of node 1 met before child 0",
                       "out of first-meet order");
  expect_rejected_both(crafted_ensemble({2, 1, 1, 0}, {0, 4, 8, 10}),
                       "child 2 of a level-1 node without a child 1",
                       "out of first-meet order");
  expect_rejected_both(crafted_ensemble(widths, {0, 2, 4, 5 | 8}),
                       "bit 3 set above 3 used bits", "bits set above");
  expect_rejected_both(
      crafted_ensemble(widths, {0, 2, 4, 5 | (std::uint64_t{1} << 63)}),
      "bit 63 set above 3 used bits", "bits set above");
  expect_rejected_both(crafted_ensemble({1, 1, 1, 1}, {0, 2, 4, 5}),
                       "root width 1", "non-zero root width");
  expect_rejected_both(crafted_ensemble({1, 2, 1, 0}, {0, 2, 8, 9}),
                       "level 1 two bits wide for child numbers 0 and 1",
                       "is not minimal");
  expect_rejected_both(crafted_ensemble({1, 1, 32, 0}, {0, 2, 4, 5}),
                       "a 32-bit level", "above 31 bits");
  expect_rejected_both(crafted_ensemble({31, 31, 31, 0}, {0, 2, 4}),
                       "three words of two-word codes",
                       "is not a positive multiple of 2 word(s)");
  expect_rejected_both(crafted_ensemble(widths, {}), "no codes",
                       "is not a positive multiple of 1 word(s)");
}

TEST(Serialize, FormatFourImagesAreRefusedByVersion) {
  // A v4 artefact: ancestor rows (leaf first) where v5 has widths and
  // codes.  The header's version word refuses it before any array is read.
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  serve::BinaryWriter w(buf);
  w.magic(serve::kEnsembleMagic);
  w.u64(1);  // master seed
  w.u64(2);  // graph fingerprint
  w.u64(1);  // tree count
  w.magic(serve::kIndexMagic);
  w.u32(4);    // levels
  w.f64(1.5);  // beta
  w.vec_u32({6, 3, 1, 0, 7, 4, 1, 0, 8, 5, 2, 0, 9, 5, 2, 0});
  w.vec_f64({0.0, 2.0, 6.0, 14.0});
  w.vec_f64({1.0, 2.0, 4.0, 8.0});
  std::string v4 = buf.str();
  const std::uint32_t four = 4;
  for (const std::size_t at : {std::size_t{12}, std::size_t{40 + 12}}) {
    std::memcpy(v4.data() + at, &four, sizeof(four));
  }
  expect_rejected_both(v4, "a v4 artefact", "unsupported format version 4");
}

TEST(Serialize, CodesWiderThanOneWordRoundTripOnBothPaths) {
  // A hierarchical ultrametric whose FRT tree needs more than 64 code bits:
  // a spine vertex and 15 points per scale s = 1..20, each at distance 4^s
  // from every point of a lower scale and from the others of its own.  At
  // every scale the spine's cluster splits into itself and 15 singletons,
  // so one level per scale has a 16-child node and takes 4 bits: 80 in
  // all, two words per code.
  constexpr unsigned kScales = 20;
  constexpr unsigned kPerScale = 15;
  const Vertex n = 1 + kScales * kPerScale;
  std::vector<unsigned> scale(n, 0);
  for (Vertex v = 1; v < n; ++v) scale[v] = 1 + (v - 1) / kPerScale;
  std::vector<Weight> metric(std::size_t{n} * n, 0.0);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = 0; v < n; ++v) {
      if (u != v) {
        metric[std::size_t{u} * n + v] =
            std::ldexp(1.0, 2 * static_cast<int>(std::max(scale[u], scale[v])));
      }
    }
  }
  Rng rng(split_seed(0x81DE, 0));
  const auto order = VertexOrder::random(n, rng);
  const auto le = le_lists_from_metric(metric, order);
  const auto tree = FrtTree::build(le.lists, order, 1.5, 4.0);
  const auto idx = serve::FrtIndex::build(tree);
  ASSERT_EQ(idx.code_words(), 2u) << "the tree must need two code words";

  for (Vertex u = 0; u < n; ++u) {
    const auto ru = test::ancestor_row(tree, u);
    for (Vertex v = 0; v < n; ++v) {
      const auto rv = test::ancestor_row(tree, v);
      unsigned differ = 0;
      for (unsigned l = 0; l < tree.num_levels(); ++l) differ += ru[l] != rv[l];
      ASSERT_EQ(idx.lca_level(u, v), differ) << u << "-" << v;
      ASSERT_EQ(idx.lca(u, v), ru[differ]) << u << "-" << v;
      ASSERT_EQ(idx.distance(u, v), tree.distance(u, v)) << u << "-" << v;
    }
  }

  std::vector<serve::FrtIndex> indices;
  indices.push_back(idx);
  const auto e = serve::FrtEnsemble::assemble(std::move(indices), 3, 4);
  const std::string bytes = save_bytes(e);
  const TempFile f("test_serialize_wide.tmp", bytes);
  const auto copied = load_copied(bytes);
  const auto mapped = serve::FrtEnsemble::load_mapped(f.path());
  EXPECT_TRUE(copied == e);
  EXPECT_TRUE(mapped == e);
  EXPECT_EQ(save_bytes(copied), bytes);
  EXPECT_EQ(save_bytes(mapped), bytes);
  EXPECT_EQ(mapped.index(0).lca(0, n - 1), idx.lca(0, n - 1));
}

TEST(Serialize, RandomizedHostileImageSweep) {
  // Seeded fuzz over a valid artefact: single-bit flips at random
  // offsets plus random truncations.  The contract on both readers is
  // "reject (std::logic_error) or load" — never crash, never any other
  // exception type.  Both readers must reach the same decision, and a
  // flip that lands in bulk payload (doubles carry no checksum) may load;
  // then the two loads must agree, so a mutant can never split the copied
  // and mmap views of one image.
  const auto g = test::support_graph("geometric", 48, 61);
  const auto e = serve::FrtEnsemble::build(g, 61, tiny_options(2));
  const std::string good = save_bytes(e);
  ASSERT_TRUE(load_copied(good) == e) << "baseline artefact must load";

  const auto try_copied =
      [](const std::string& bytes) -> std::optional<serve::FrtEnsemble> {
    try {
      return load_copied(bytes);
    } catch (const std::logic_error&) {
      return std::nullopt;
    }
  };
  const auto try_mapped =
      [](const std::string& path) -> std::optional<serve::FrtEnsemble> {
    try {
      return serve::FrtEnsemble::load_mapped(path);
    } catch (const std::logic_error&) {
      return std::nullopt;
    }
  };

  Rng rng(split_seed(0xF1207, 0));
  std::size_t rejected = 0;
  std::size_t loaded = 0;
  for (std::size_t iter = 0; iter < 200; ++iter) {
    std::string bad = good;
    std::string what;
    if (rng.flip(0.25)) {
      // Truncation anywhere, including empty and one-short.
      const auto keep = static_cast<std::size_t>(rng.below(good.size()));
      bad = good.substr(0, keep);
      what = "truncated to " + std::to_string(keep);
    } else {
      const auto at = static_cast<std::size_t>(rng.below(good.size()));
      const auto bit = static_cast<unsigned>(rng.below(8));
      bad[at] = static_cast<char>(static_cast<unsigned char>(bad[at]) ^
                                  (1u << bit));
      what = "bit " + std::to_string(bit) + " flipped at byte " +
             std::to_string(at);
    }
    const auto from_copied = try_copied(bad);
    const TempFile f("test_serialize_fuzz.tmp", bad);
    const auto from_mapped = try_mapped(f.path());
    ASSERT_EQ(from_copied.has_value(), from_mapped.has_value()) << what;
    if (from_copied.has_value()) {
      EXPECT_TRUE(*from_copied == *from_mapped) << what;
      ++loaded;
    } else {
      ++rejected;
    }
  }
  // The sweep must exercise both outcomes, or it degenerates into either
  // a pure-rejection or a pure-roundtrip test.
  EXPECT_GT(rejected, std::size_t{0});
  EXPECT_GT(loaded, std::size_t{0});
}

TEST(Serialize, ImageReaderViewsRequireAlignedBaseCopiesDoNot) {
  const auto g = test::support_graph("gnm", 32, 59);
  const auto e = serve::FrtEnsemble::build(g, 59, tiny_options(2));
  const std::string bytes = save_bytes(e);
  const TempFile f("test_serialize_align.tmp", bytes);
  const serve::MappedFile file(f.path());
  // A misaligned base violates the view-mode constructor contract
  // outright.
  EXPECT_THROW(serve::ImageReader r(file.bytes().subspan(1),
                                    serve::ImageReader::Sections::view),
               std::logic_error);
  // An aligned interior base is structurally valid but is not an
  // artefact start — the magic check fires.
  ASSERT_GT(file.size(), std::size_t{128});
  serve::ImageReader interior(file.bytes().subspan(64),
                              serve::ImageReader::Sections::view);
  EXPECT_THROW(interior.expect_magic(serve::kEnsembleMagic),
               std::logic_error);
  // Copies take any base: the same artefact one byte into a buffer loads.
  const std::string shifted = "x" + bytes;
  const auto image = std::as_bytes(std::span(shifted)).subspan(1);
  EXPECT_TRUE(serve::FrtEnsemble::load(image) == e);
}

TEST(Serialize, MappedFileRefusesFifoWithoutWriter) {
  // A FIFO has no size to map.  It is refused at once, even when no writer
  // has opened it, where a blocking open(2) would wait forever.
  const std::string path = "test_serialize_fifo.tmp";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  EXPECT_THROW(serve::MappedFile file(path), std::logic_error);
  std::remove(path.c_str());
}

TEST(Serialize, GoldenArtefactBytes) {
  // The artefacts `serve_queries --graph=gnm --n=96 --trees=3 --seed=7
  // --pipeline=P --save=FILE` writes, pinned by an FNV-1a-64 of their
  // bytes: the check that the format and the sampled trees stay put.  The
  // codes hold child numbers, not node ids; that the ids derived from
  // them are the trees' own is FrtIndex.CodesAgreeWithTreeRowsOnEveryPipeline's
  // check.  Change the constants only with a deliberate format change.
  const auto g = make_family_graph("gnm", 96, 7);
  const struct {
    serve::EnsemblePipeline pipeline;
    std::uint64_t fnv;
  } kGolden[] = {{serve::EnsemblePipeline::oracle, 0x91a9a05c15427e9fULL},
                 {serve::EnsemblePipeline::direct, 0xc7a05d1f71cd7459ULL}};
  const ThreadGuard guard;
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const auto& golden : kGolden) {
      serve::EnsembleOptions opts;
      opts.trees = 3;
      opts.pipeline = golden.pipeline;
      const auto bytes = save_bytes(serve::FrtEnsemble::build(g, 7, opts));
      std::uint64_t hash = kFnv1aInit;
      for (const char byte : bytes) {
        hash = fnv1a_fold(hash, static_cast<unsigned char>(byte));
      }
      EXPECT_EQ(bytes.size(), 3304U) << threads << " threads";
      EXPECT_EQ(hash, golden.fnv) << threads << " threads";
    }
  }
}

TEST(Serialize, MappedAndCopiedLoadsAgreeAcrossCorpusAndThreads) {
  // The tentpole differential: over a 50-graph corpus, the mmap load must
  // (a) copy zero bulk payload bytes, (b) compare equal to the copying
  // load, and (c) serve bit-identical doubles with identical logical
  // counters at 1/2/8 threads.
  const auto corpus = test::serve_graph_corpus(50, 6101);
  ThreadGuard guard;
  std::uint64_t total_mapped_sections = 0;
  for (const auto& c : corpus) {
    const auto built =
        serve::FrtEnsemble::build(c.graph, c.seed, tiny_options(2));
    const TempFile f("test_serialize_diff.tmp", save_bytes(built));

    serve::reset_load_path_counters();
    const auto copied = load_copied(save_bytes(built));
    const auto copy_counters = serve::load_path_counters();
    EXPECT_GT(copy_counters.bulk_bytes_copied, 0u) << c.name;
    EXPECT_GT(copy_counters.sections_copied, 0u) << c.name;
    EXPECT_EQ(copy_counters.sections_mapped, 0u) << c.name;

    serve::reset_load_path_counters();
    const auto mapped = serve::FrtEnsemble::load_mapped(f.path());
    const auto map_counters = serve::load_path_counters();
    EXPECT_EQ(map_counters.bulk_bytes_copied, 0u) << c.name;
    EXPECT_EQ(map_counters.sections_copied, 0u) << c.name;
    EXPECT_EQ(map_counters.sections_mapped, copy_counters.sections_copied)
        << c.name;
    total_mapped_sections += map_counters.sections_mapped;

    EXPECT_TRUE(mapped.is_mapped()) << c.name;
    EXPECT_GT(mapped.mapped_bytes(), 0u) << c.name;
    EXPECT_TRUE(mapped.index(0).is_mapped()) << c.name;
    EXPECT_FALSE(copied.is_mapped()) << c.name;
    EXPECT_TRUE(mapped == copied) << c.name;
    EXPECT_TRUE(mapped == built) << c.name;
    EXPECT_EQ(mapped.registry_fingerprint(), built.registry_fingerprint())
        << c.name;

    // Query differential: same pairs, both policies, several thread
    // counts — outputs bitwise equal, counters identical.
    const Vertex n = c.graph.num_vertices();
    Rng qrng(c.seed + 23);
    std::vector<std::pair<Vertex, Vertex>> pairs;
    for (int i = 0; i < 128; ++i) {
      pairs.emplace_back(static_cast<Vertex>(qrng.below(n)),
                         static_cast<Vertex>(qrng.below(n)));
    }
    for (const auto policy :
         {serve::AggregatePolicy::min, serve::AggregatePolicy::median}) {
      for (const int threads : {1, 2, 8}) {
        set_num_threads(threads);
        std::vector<Weight> out_copied, out_mapped;
        const auto s_copied = copied.query_batch(pairs, policy, out_copied);
        const auto s_mapped = mapped.query_batch(pairs, policy, out_mapped);
        ASSERT_EQ(out_copied.size(), out_mapped.size());
        EXPECT_EQ(std::memcmp(out_copied.data(), out_mapped.data(),
                              out_copied.size() * sizeof(Weight)),
                  0)
            << c.name << " threads=" << threads;
        EXPECT_EQ(s_copied.tree_lookups, s_mapped.tree_lookups) << c.name;
        EXPECT_EQ(s_copied.lca_probes, s_mapped.lca_probes) << c.name;
      }
    }
  }
  // 4 sections per index, 2 indices per ensemble, 50 ensembles.
  EXPECT_EQ(total_mapped_sections, 4u * 2u * 50u);
}

TEST(Serialize, MappedEnsembleSurvivesRegistrySwapAndFileUnlink) {
  // Lifetime contract under ASan: the mapping must stay valid while any
  // registry entry or tenant serves from it — across the backing file
  // being unlinked, a copy (which deep-copies into owned storage), an
  // epoch hot-swap, and retirement from the registry.
  const auto g = test::support_graph("gnm", 64, 61);
  const auto built = serve::FrtEnsemble::build(g, 61, tiny_options(2));
  const auto replacement =
      serve::FrtEnsemble::build(g, 62, tiny_options(2));

  serve::Server server;
  std::uint64_t fp_mapped = 0;
  {
    const TempFile f("test_serialize_life.tmp", save_bytes(built));
    auto mapped = serve::FrtEnsemble::load_mapped(f.path());
    // A deep copy owns its arrays — it must outlive the mapping on its
    // own (checked implicitly: we query it after retirement below).
    fp_mapped = server.load(std::move(mapped));
  }  // backing file unlinked here; the mapping keeps the inode alive

  const std::uint64_t fp_new = server.load(replacement);
  serve::TenantConfig cfg;
  cfg.ensemble = fp_mapped;
  cfg.cache_capacity = 64;
  const auto t0 = server.add_tenant(cfg);

  const auto specs = std::vector<serve::TenantStreamSpec>{
      {serve::WorkloadKind::uniform, {}}};
  auto stream = serve::make_multi_tenant_workload(g, specs, 61);
  std::vector<Weight> out_mapped_epoch, out_new_epoch;
  server.serve(stream, out_mapped_epoch);

  // Flip away: the mapped epoch drains and retires from the registry —
  // its shared_ptr (and the mapping) die here.  Serving afterwards must
  // not touch freed memory.
  server.stage_swap(t0, fp_new);
  server.serve(stream, out_new_epoch);
  EXPECT_FALSE(server.registry().contains(fp_mapped));
  EXPECT_EQ(server.epochs_retired(), 1u);

  // The post-swap epoch serves the replacement's values.
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (const auto& q : stream) pairs.emplace_back(q.u, q.v);
  std::vector<Weight> expect_new;
  serve::HotPairCache fresh(64);
  (void)replacement.query_batch(pairs, serve::AggregatePolicy::min,
                                expect_new, &fresh);
  ASSERT_EQ(out_new_epoch.size(), expect_new.size());
  EXPECT_EQ(std::memcmp(out_new_epoch.data(), expect_new.data(),
                        expect_new.size() * sizeof(Weight)),
            0);
}

}  // namespace
}  // namespace pmte

// Durable round store: WAL framing, torn-tail recovery, snapshot
// fallback, crashpoint injection, and crash-consistent simulation
// recovery (empty WAL, snapshot-only, duplicate records, legacy DCKP).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>

#include "fl/durable.h"
#include "fl/simulation.h"
#include "nn/model.h"
#include "store/io.h"
#include "store/round_store.h"
#include "store/wal.h"
#include "test_helpers.h"
#include "util/crashpoint.h"
#include "util/error.h"

namespace dinar {
namespace {

namespace fs = std::filesystem;
using dinar::testing::make_easy_dataset;
using dinar::testing::tiny_mlp_factory;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "dinar_store_test/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

// Copies of record views, so tests compare bytes, not just sizes.
std::vector<std::uint8_t> copy_of(std::span<const std::uint8_t> view) {
  return {view.begin(), view.end()};
}

std::vector<std::vector<std::uint8_t>> copies_of(
    const std::vector<std::span<const std::uint8_t>>& views) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const std::span<const std::uint8_t> v : views) out.push_back(copy_of(v));
  return out;
}

void write_raw(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

// ------------------------------------------------------------------ crc32 --

TEST(Crc32Test, KnownAnswer) {
  const char* s = "123456789";
  EXPECT_EQ(store::crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32Test, SeedChainsBuffers) {
  const char* s = "123456789";
  const std::uint32_t part = store::crc32(s, 4);
  EXPECT_EQ(store::crc32(s + 4, 5, part), store::crc32(s, 9));
}

// The bytewise table loop crc32 used before slice-by-8: the oracle every
// slice-by-8 value must equal, so stores written by either recover alike.
std::uint32_t bytewise_crc32(const std::uint8_t* p, std::size_t n,
                             std::uint32_t seed = 0) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> pseudo_random_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::uint32_t x = 0x9E3779B9u;
  for (std::uint8_t& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return bytes;
}

// The tiers this build and host can run; slice-by-8 always.
std::vector<std::pair<const char*, store::Crc32Fn>> crc_tiers() {
  std::vector<std::pair<const char*, store::Crc32Fn>> tiers = {
      {"slice8", store::crc32_kernel(store::Crc32Kernel::kSlice8)}};
  if (const store::Crc32Fn f = store::crc32_kernel(store::Crc32Kernel::kPclmul))
    tiers.emplace_back("pclmul", f);
  return tiers;
}

TEST(Crc32Test, MatchesBytewiseOracleAtEveryLengthAndAlignment) {
  // Past 4 x 64 bytes, so the folding tier runs its 64-byte loop, its
  // 16-byte loop and every tail length.
  const std::vector<std::uint8_t> bytes = pseudo_random_bytes(300 + 8);
  for (const auto& [name, crc] : crc_tiers()) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t n = 0; n <= 300; ++n) {
        const std::uint8_t* p = bytes.data() + offset;
        EXPECT_EQ(crc(p, n, 0), bytewise_crc32(p, n))
            << name << ", offset " << offset << " length " << n;
        EXPECT_EQ(crc(p, n, 0xDEADBEEFu), bytewise_crc32(p, n, 0xDEADBEEFu))
            << name << ", seeded, offset " << offset << " length " << n;
      }
    }
  }
}

TEST(Crc32Test, SeedChainsAcrossEverySplitPoint) {
  const std::vector<std::uint8_t> bytes = pseudo_random_bytes(200);
  const std::uint32_t whole = bytewise_crc32(bytes.data(), bytes.size());
  for (const auto& [name, crc] : crc_tiers()) {
    EXPECT_EQ(crc(bytes.data(), bytes.size(), 0), whole) << name;
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
      const std::uint32_t head = crc(bytes.data(), split, 0);
      EXPECT_EQ(crc(bytes.data() + split, bytes.size() - split, head), whole)
          << name << ", split at " << split;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseOracleAtFoldEdgesAndOnAMegabyte) {
  const std::vector<std::uint8_t> bytes = pseudo_random_bytes(1 << 20);
  for (const auto& [name, crc] : crc_tiers()) {
    for (std::size_t n : {15u, 16u, 17u, 63u, 64u, 65u, 127u, 128u, 129u, 191u, 192u, 193u,
                          1u << 20})
      EXPECT_EQ(crc(bytes.data(), n, 0), bytewise_crc32(bytes.data(), n))
          << name << ", length " << n;
  }
}

// Checksums already on disk: a tier that changes one fails here by name.
TEST(Crc32Test, GoldenValuesOfFixedBuffers) {
  const std::vector<std::uint8_t> zeros(1000, 0);
  std::vector<std::uint8_t> ramp(4096);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<std::uint8_t>(i * 31 + 7);
  const std::vector<std::uint8_t> noise = pseudo_random_bytes(777);
  for (const auto& [name, crc] : crc_tiers()) {
    EXPECT_EQ(crc(zeros.data(), zeros.size(), 0), 0x060B1780u) << name;
    EXPECT_EQ(crc(ramp.data(), ramp.size(), 0), 0x5D1C4EE3u) << name;
    EXPECT_EQ(crc(noise.data(), noise.size(), 0), 0x80A3A8CBu) << name;
  }
}

TEST(Crc32Test, PclmulTierMatchesSlice8OnLargeUnalignedBuffers) {
  const store::Crc32Fn pclmul = store::crc32_kernel(store::Crc32Kernel::kPclmul);
  if (pclmul == nullptr) GTEST_SKIP() << "PCLMULQDQ CRC-32 tier not available on this build/host";
  const store::Crc32Fn slice8 = store::crc32_kernel(store::Crc32Kernel::kSlice8);
  const std::vector<std::uint8_t> bytes = pseudo_random_bytes((1 << 20) + 64);
  for (std::size_t offset = 0; offset < 16; ++offset)
    for (std::size_t n : {(1u << 20) - 1, (1u << 20) + 15, (1u << 20) + 48})
      EXPECT_EQ(pclmul(bytes.data() + offset, n, 0x1234u),
                slice8(bytes.data() + offset, n, 0x1234u))
          << "offset " << offset << " length " << n;
}

// -------------------------------------------------------- atomic_write_file --

TEST(AtomicWriteTest, ReplacesContentAndLeavesNoTemp) {
  const std::string dir = fresh_dir("atomic");
  const std::string path = dir + "/file.bin";
  store::atomic_write_file(path, bytes_of({1, 2, 3}));
  store::atomic_write_file(path, bytes_of({9, 8}));
  const auto got = store::read_file(path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of({9, 8}));
  EXPECT_FALSE(store::path_exists(path + ".tmp"));
}

TEST(AtomicWriteTest, MissingFileReadsAsNullopt) {
  EXPECT_FALSE(store::read_file(fresh_dir("missing") + "/nope").has_value());
}

TEST(ReadFileTest, RoundTripsAtChunkAndPageEdges) {
  const std::string dir = fresh_dir("read_file");
  for (std::size_t n : {0u, 1u, 65535u, 65536u, 65537u, (1u << 20) + 3}) {
    const std::string path = dir + "/f" + std::to_string(n);
    const std::vector<std::uint8_t> bytes = pseudo_random_bytes(n);
    store::atomic_write_file(path, bytes);
    const auto got = store::read_file(path);
    ASSERT_TRUE(got.has_value()) << n;
    EXPECT_EQ(*got, bytes) << "size " << n;
  }
  EXPECT_FALSE(store::read_file(dir + "/missing").has_value());
}

TEST(MappedFileTest, ViewsTheFileByteForByteAtPageEdges) {
  const std::string dir = fresh_dir("mapped");
  for (std::size_t n : {0u, 1u, 4095u, 4096u, 4097u, (1u << 20) + 3}) {
    const std::string path = dir + "/f" + std::to_string(n);
    const std::vector<std::uint8_t> bytes = pseudo_random_bytes(n);
    store::atomic_write_file(path, bytes);
    std::optional<store::MappedFile> file = store::MappedFile::open(path);
    ASSERT_TRUE(file.has_value()) << n;
    ASSERT_EQ(file->bytes().size(), n);
    EXPECT_EQ(copy_of(file->bytes()), bytes) << "size " << n;
    // A move hands the mapping over; views into it stay valid.
    const std::span<const std::uint8_t> view = file->bytes();
    store::MappedFile moved = std::move(*file);
    file.reset();
    EXPECT_EQ(moved.bytes().data(), view.data());
    EXPECT_EQ(copy_of(view), bytes) << "size " << n << " after a move";
  }
  EXPECT_FALSE(store::MappedFile::open(dir + "/missing").has_value());
}

// True if this process has `path` mapped (Linux /proc/self/maps).
std::optional<bool> mapped_in_this_process(const std::string& path) {
  std::ifstream maps("/proc/self/maps");
  if (!maps) return std::nullopt;
  const std::string target = fs::canonical(path).string();
  std::string line;
  while (std::getline(maps, line))
    if (line.size() >= target.size() &&
        line.compare(line.size() - target.size(), target.size(), target) == 0)
      return true;
  return false;
}

// ------------------------------------------------------------------- WAL ----

TEST(WalTest, FreshLogScansEmpty) {
  const std::string path = fresh_dir("wal_fresh") + "/wal.log";
  store::Wal wal(path);
  const auto scan = store::Wal::scan(path);
  EXPECT_FALSE(scan.missing_or_empty);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.tail_discarded);
}

TEST(WalTest, AppendReopenScanRoundTrips) {
  const std::string path = fresh_dir("wal_rt") + "/wal.log";
  const std::vector<std::vector<std::uint8_t>> records = {
      bytes_of({1, 2, 3, 4, 5}), bytes_of({}), bytes_of({7, 7, 7})};
  {
    store::Wal wal(path);
    for (const auto& r : records) wal.append(r);
  }
  store::Wal reopened(path);  // must not disturb the valid prefix
  const auto scan = store::Wal::scan(path);
  EXPECT_EQ(copies_of(scan.records), records);
  EXPECT_FALSE(scan.tail_discarded);
}

TEST(WalTest, ResetTruncatesToHeader) {
  const std::string path = fresh_dir("wal_reset") + "/wal.log";
  store::Wal wal(path);
  wal.append(bytes_of({1, 2, 3}));
  wal.reset();
  wal.append(bytes_of({4}));
  const auto scan = store::Wal::scan(path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(copy_of(scan.records[0]), bytes_of({4}));
}

// Torn at EVERY byte boundary: truncating the log anywhere must yield
// exactly the records whose frames fully fit, flag the torn tail, and
// never throw.
TEST(WalTest, TruncationAtEveryLengthRecoversLongestValidPrefix) {
  const std::string dir = fresh_dir("wal_trunc");
  const std::string path = dir + "/wal.log";
  const std::vector<std::vector<std::uint8_t>> records = {
      bytes_of({1, 2, 3, 4, 5}), bytes_of({}), bytes_of({7, 7, 7, 7})};
  {
    store::Wal wal(path);
    for (const auto& r : records) wal.append(r);
  }
  const auto full = store::read_file(path);
  ASSERT_TRUE(full.has_value());
  // Frame boundaries: header, then header + cumulative frame sizes.
  std::vector<std::size_t> boundaries = {8};
  for (const auto& r : records) boundaries.push_back(boundaries.back() + 8 + r.size());
  ASSERT_EQ(boundaries.back(), full->size());

  for (std::size_t len = 0; len < full->size(); ++len) {
    const std::string torn = dir + "/torn.log";
    write_raw(torn, {full->begin(), full->begin() + static_cast<long>(len)});
    std::size_t expect = 0;
    while (expect + 1 < boundaries.size() && boundaries[expect + 1] <= len) ++expect;
    {  // the scan's mapping must be gone before the reopen trims the file
      const auto scan = store::Wal::scan(torn);
      if (len < 8) {
        EXPECT_TRUE(scan.missing_or_empty) << "len=" << len;
        continue;
      }
      ASSERT_EQ(scan.records.size(), expect) << "len=" << len;
      for (std::size_t i = 0; i < expect; ++i)
        EXPECT_EQ(copy_of(scan.records[i]), records[i]) << "len=" << len;
      EXPECT_EQ(scan.tail_discarded, len != boundaries[expect]) << "len=" << len;
    }
    // Re-opening the torn log for append must trim the tail cleanly.
    store::Wal reopened(torn);
    reopened.append(bytes_of({42}));
    const auto rescan = store::Wal::scan(torn);
    ASSERT_EQ(rescan.records.size(), expect + 1) << "len=" << len;
    for (std::size_t i = 0; i < expect; ++i)
      EXPECT_EQ(copy_of(rescan.records[i]), records[i]) << "len=" << len;
    EXPECT_EQ(copy_of(rescan.records.back()), bytes_of({42}));
  }
}

// A single flipped bit anywhere must cost at most the records from the
// flipped frame onward — never a crash, never a corrupted record accepted.
TEST(WalTest, BitFlipAtEveryByteStopsAtTheFlippedFrame) {
  const std::string dir = fresh_dir("wal_flip");
  const std::string path = dir + "/wal.log";
  const std::vector<std::vector<std::uint8_t>> records = {
      bytes_of({1, 2, 3, 4, 5}), bytes_of({}), bytes_of({7, 7, 7, 7})};
  {
    store::Wal wal(path);
    for (const auto& r : records) wal.append(r);
  }
  const auto full = store::read_file(path);
  ASSERT_TRUE(full.has_value());
  std::vector<std::size_t> boundaries = {8};
  for (const auto& r : records) boundaries.push_back(boundaries.back() + 8 + r.size());

  for (std::size_t pos = 0; pos < full->size(); ++pos) {
    std::vector<std::uint8_t> flipped = *full;
    flipped[pos] ^= 0x40;
    const std::string mutated = dir + "/flipped.log";
    write_raw(mutated, flipped);
    const auto scan = store::Wal::scan(mutated);
    if (pos < 8) {
      EXPECT_TRUE(scan.missing_or_empty) << "pos=" << pos;
      continue;
    }
    std::size_t frame = 0;
    while (frame + 1 < boundaries.size() && boundaries[frame + 1] <= pos) ++frame;
    ASSERT_EQ(scan.records.size(), frame) << "pos=" << pos;
    for (std::size_t i = 0; i < frame; ++i)
      EXPECT_EQ(copy_of(scan.records[i]), records[i]) << "pos=" << pos;
  }
}

// Reopening a log with a torn tail, or with a header that is not a WAL's,
// truncates it; the scan that found the valid prefix must be unmapped by
// then, since reading a truncated page of a live mapping raises SIGBUS.
TEST(WalTest, OpeningATornOrForeignLogUnmapsItsScanBeforeTrimming) {
  const std::string dir = fresh_dir("wal_unmap");
  const std::string path = dir + "/wal.log";
  const std::vector<std::uint8_t> record = pseudo_random_bytes(3 * 4096);
  {
    store::Wal wal(path);
    wal.append(record);
  }
  const std::vector<std::uint8_t> full = *store::read_file(path);
  {  // positive control: a live scan shows up as a mapping of the file
    const auto scan = store::Wal::scan(path);
    const std::optional<bool> seen = mapped_in_this_process(path);
    if (!seen.has_value()) GTEST_SKIP() << "/proc/self/maps is not readable";
    ASSERT_TRUE(*seen);
  }
  std::vector<std::uint8_t> torn = full;
  torn.resize(full.size() - 100);  // the only record loses its last bytes
  std::vector<std::uint8_t> foreign = full;
  foreign[0] ^= 0xFF;  // not a DWAL header
  for (const auto& [name, bytes] : {std::pair{"torn", torn}, std::pair{"foreign", foreign}}) {
    write_raw(path, bytes);
    store::Wal wal(path);
    EXPECT_FALSE(*mapped_in_this_process(path)) << name;
    EXPECT_EQ(fs::file_size(path), 8u) << name;  // trimmed to the bare header
    EXPECT_EQ(wal.size_bytes(), 8u) << name;
    wal.append(bytes_of({5}));
    const auto scan = store::Wal::scan(path);
    ASSERT_EQ(scan.records.size(), 1u) << name;
    EXPECT_EQ(copy_of(scan.records[0]), bytes_of({5})) << name;
  }
}

// Fixed payloads through Wal::append and install_snapshot hash to values
// recorded from the on-disk format: a framing change fails here by name,
// with no model numerics involved.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001B3ull;
  return h;
}

TEST(StoreGoldenTest, WalAndSnapshotFilesHashToRecordedValues) {
  const std::string dir = fresh_dir("golden") + "/store";
  store::RoundStore s(dir);
  s.append(bytes_of({}));
  s.append(bytes_of({1, 2, 3}));
  s.append(pseudo_random_bytes(1000));
  const std::vector<std::uint8_t> wal = *store::read_file(dir + "/wal.log");
  EXPECT_EQ(wal.size(), 8u + 8u + (8u + 3u) + (8u + 1000u));
  EXPECT_EQ(fnv1a64(wal), 0xB2CF1B959EE5A260ull);

  s.install_snapshot(7, pseudo_random_bytes(333));
  s.append(bytes_of({9, 9}));
  const std::vector<std::uint8_t> snap = *store::read_file(dir + "/snapshot-000000000007.snap");
  EXPECT_EQ(snap.size(), 28u + 333u);
  EXPECT_EQ(fnv1a64(snap), 0xD2C41F92BAF3CC10ull);
  const std::vector<std::uint8_t> compacted = *store::read_file(dir + "/wal.log");
  EXPECT_EQ(compacted.size(), 8u + 8u + 2u);
  EXPECT_EQ(fnv1a64(compacted), 0xC8575BCB50D090E1ull);
}

// ------------------------------------------------------------- crashpoints --

using CrashpointDeathTest = ::testing::Test;

TEST(CrashpointDeathTest, ArmedSiteDiesWithTheDedicatedExitCode) {
  EXPECT_EXIT(
      {
        crashpoint_arm("test.site", 1);
        crashpoint("test.site");
      },
      ::testing::ExitedWithCode(kCrashpointExitCode), "dying at test.site");
}

TEST(CrashpointDeathTest, HitCountDelaysTheKill) {
  EXPECT_EXIT(
      {
        crashpoint_arm("test.site", 2);
        crashpoint("test.site");  // survives the first hit
        crashpoint("test.site");
      },
      ::testing::ExitedWithCode(kCrashpointExitCode), "dying at test.site");
}

// The armed append splits its frame write in two around mid_write: what
// reaches the disk is exactly the first half of header ++ payload.
TEST(CrashpointDeathTest, MidWriteAppendLeavesATornHalfFrame) {
  const std::string path = fresh_dir("wal_mid_write") + "/wal.log";
  {
    store::Wal wal(path);
    wal.append(bytes_of({1, 2, 3}));
  }
  const std::vector<std::uint8_t> payload = pseudo_random_bytes(100);
  EXPECT_EXIT(
      {
        store::Wal wal(path);
        crashpoint_arm("wal.append.mid_write", 1);
        wal.append(payload);
      },
      ::testing::ExitedWithCode(kCrashpointExitCode), "dying at wal.append.mid_write");

  const std::size_t before = 8 + (8 + 3);  // file header + the intact frame
  const std::size_t torn = (8 + payload.size()) / 2;
  const auto bytes = store::read_file(path);
  ASSERT_TRUE(bytes.has_value());
  ASSERT_EQ(bytes->size(), before + torn);
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  std::memcpy(&len, bytes->data() + before, 4);
  std::memcpy(&crc, bytes->data() + before + 4, 4);
  EXPECT_EQ(len, payload.size());
  EXPECT_EQ(crc, store::crc32(payload.data(), payload.size()));
  EXPECT_TRUE(std::equal(bytes->begin() + static_cast<std::ptrdiff_t>(before + 8),
                         bytes->end(), payload.begin()));

  const auto scan = store::Wal::scan(path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(copy_of(scan.records[0]), bytes_of({1, 2, 3}));
  EXPECT_TRUE(scan.tail_discarded);
}

// Any armed crashpoint switches appends to the split write; when the kill
// is armed elsewhere both halves must land, forming one intact frame.
TEST(CrashpointTest, SplitAppendWritesTheWholeFrameWhenArmedElsewhere) {
  const std::string path = fresh_dir("wal_split_write") + "/wal.log";
  const std::vector<std::uint8_t> odd = pseudo_random_bytes(101);
  const std::vector<std::uint8_t> tiny = bytes_of({9});
  {
    store::Wal wal(path);
    crashpoint_arm("some.other.site", 1);
    wal.append(odd);
    wal.append(tiny);  // the split falls inside the 8-byte header
    wal.append({});
    crashpoint_disarm();
  }
  const auto scan = store::Wal::scan(path);
  EXPECT_EQ(copies_of(scan.records), (std::vector<std::vector<std::uint8_t>>{odd, tiny, {}}));
  EXPECT_FALSE(scan.tail_discarded);
}

TEST(CrashpointTest, UnarmedAndMismatchedSitesAreNoOps) {
  crashpoint("never.armed");
  crashpoint_arm("some.other.site", 1);
  crashpoint("never.armed");
  crashpoint_disarm();
  EXPECT_FALSE(crashpoint_armed());
}

TEST(CrashpointTest, RegistryListsTheDurabilitySites) {
  const auto& reg = crashpoint_registry();
  EXPECT_GE(reg.size(), 10u);
  EXPECT_NE(std::find(reg.begin(), reg.end(), "wal.append.pre_fsync"), reg.end());
  EXPECT_NE(std::find(reg.begin(), reg.end(), "snapshot.rename"), reg.end());
  EXPECT_NE(std::find(reg.begin(), reg.end(), "round.commit.mid"), reg.end());
}

TEST(CrashpointSpecTest, ParsesBareSiteAndExplicitHitCount) {
  const CrashpointSpec bare = parse_crashpoint_spec("wal.append.pre_fsync");
  EXPECT_EQ(bare.site, "wal.append.pre_fsync");
  EXPECT_EQ(bare.hit, 1);

  const CrashpointSpec counted = parse_crashpoint_spec("snapshot.rename:3");
  EXPECT_EQ(counted.site, "snapshot.rename");
  EXPECT_EQ(counted.hit, 3);
}

TEST(CrashpointSpecTest, RejectsMalformedSpecsWithNamedErrors) {
  // Empty site, with or without a count.
  EXPECT_THROW(parse_crashpoint_spec(":3"), dinar::Error);
  EXPECT_THROW(parse_crashpoint_spec(":"), dinar::Error);
  // A colon commits the spec to a hit count: non-numeric suffixes must not
  // be silently folded back into the site name.
  EXPECT_THROW(parse_crashpoint_spec("wal.append.pre_fsync:"), dinar::Error);
  EXPECT_THROW(parse_crashpoint_spec("wal.append.pre_fsync:x"), dinar::Error);
  EXPECT_THROW(parse_crashpoint_spec("wal.append.pre_fsync:3x"), dinar::Error);
  // Zero, negative and overflowing counts are out of range.
  EXPECT_THROW(parse_crashpoint_spec("wal.append.pre_fsync:0"), dinar::Error);
  EXPECT_THROW(parse_crashpoint_spec("wal.append.pre_fsync:-2"), dinar::Error);
  EXPECT_THROW(parse_crashpoint_spec("wal.append.pre_fsync:99999999999"),
               dinar::Error);
  try {
    parse_crashpoint_spec("site:bogus");
    FAIL() << "expected dinar::Error";
  } catch (const dinar::Error& e) {
    EXPECT_NE(std::string(e.what()).find("DINAR_CRASHPOINT"), std::string::npos);
  }
}

// ------------------------------------------------------------- RoundStore --

TEST(RoundStoreTest, FreshStoreIsEmpty) {
  store::RoundStore s(fresh_dir("rs_empty") + "/store");
  const auto rec = s.recover();
  EXPECT_FALSE(rec.snapshot.has_value());
  EXPECT_EQ(rec.snapshot_round, -1);
  EXPECT_EQ(rec.snapshots_rejected, 0u);
  EXPECT_TRUE(rec.wal_records.empty());
  EXPECT_FALSE(rec.wal_tail_discarded);
}

TEST(RoundStoreTest, SnapshotOnlyRecovers) {
  const std::string dir = fresh_dir("rs_snap") + "/store";
  store::RoundStore s(dir);
  s.append(bytes_of({1}));
  s.install_snapshot(5, bytes_of({10, 20, 30}));  // compaction resets the WAL
  const auto rec = s.recover();
  ASSERT_TRUE(rec.snapshot.has_value());
  EXPECT_EQ(copy_of(*rec.snapshot), bytes_of({10, 20, 30}));
  EXPECT_EQ(rec.snapshot_round, 5);
  EXPECT_TRUE(rec.wal_records.empty());
}

TEST(RoundStoreTest, CorruptNewestSnapshotFallsBackToOlder) {
  const std::string dir = fresh_dir("rs_fallback") + "/store";
  std::string newest;
  {
    store::RoundStore s(dir);
    s.install_snapshot(1, bytes_of({1, 1}));
    s.install_snapshot(2, bytes_of({2, 2}));
    for (const auto& e : fs::directory_iterator(dir)) {
      const std::string name = e.path().filename().string();
      if (name.find("snap") != std::string::npos && name.find("2") != std::string::npos)
        newest = e.path().string();
    }
  }
  ASSERT_FALSE(newest.empty());
  auto bytes = store::read_file(newest);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() - 1] ^= 0xFF;  // corrupt the newest payload
  write_raw(newest, *bytes);

  store::RoundStore s(dir);
  const auto rec = s.recover();
  ASSERT_TRUE(rec.snapshot.has_value());
  EXPECT_EQ(copy_of(*rec.snapshot), bytes_of({1, 1}));
  EXPECT_EQ(rec.snapshot_round, 1);
  EXPECT_EQ(rec.snapshots_rejected, 1u);
}

// A recovery's views are dropped before the store is written again:
// compaction truncates the WAL that the first recovery had mapped.
TEST(RoundStoreTest, RecoverThenCompactThenRecoverAgain) {
  const std::string dir = fresh_dir("rs_recompact") + "/store";
  store::RoundStore s(dir);
  const std::vector<std::uint8_t> big = pseudo_random_bytes(3 * 4096 + 5);
  s.append(big);
  s.append(bytes_of({4, 4}));
  {
    const auto rec = s.recover();
    EXPECT_FALSE(rec.snapshot.has_value());
    EXPECT_EQ(copies_of(rec.wal_records),
              (std::vector<std::vector<std::uint8_t>>{big, bytes_of({4, 4})}));
  }
  s.install_snapshot(2, big);  // truncates the WAL to its header
  s.append(bytes_of({3}));
  const auto rec = s.recover();
  ASSERT_TRUE(rec.snapshot.has_value());
  EXPECT_EQ(copy_of(*rec.snapshot), big);
  EXPECT_EQ(rec.snapshot_round, 2);
  EXPECT_EQ(copies_of(rec.wal_records), (std::vector<std::vector<std::uint8_t>>{bytes_of({3})}));
  EXPECT_FALSE(rec.wal_tail_discarded);
}

TEST(RoundStoreTest, TruncatedSnapshotIsRejectedNotFatal) {
  const std::string dir = fresh_dir("rs_truncsnap") + "/store";
  std::string snap;
  {
    store::RoundStore s(dir);
    s.install_snapshot(3, bytes_of({1, 2, 3, 4, 5, 6, 7, 8}));
    for (const auto& e : fs::directory_iterator(dir))
      if (e.path().filename().string().find(".snap") != std::string::npos)
        snap = e.path().string();
  }
  ASSERT_FALSE(snap.empty());
  const auto bytes = store::read_file(snap);
  ASSERT_TRUE(bytes.has_value());
  write_raw(snap, {bytes->begin(), bytes->begin() + 10});  // torn mid-header

  store::RoundStore s(dir);
  const auto rec = s.recover();
  EXPECT_FALSE(rec.snapshot.has_value());
  EXPECT_EQ(rec.snapshots_rejected, 1u);
}

// -------------------------------------------- simulation-level recovery ----

data::FlSplit easy_split(int clients, std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  data::Dataset full = make_easy_dataset(n, rng);
  data::FlSplitConfig cfg;
  cfg.num_clients = clients;
  return data::make_fl_split(full, cfg, rng);
}

fl::SimulationConfig durable_config(int rounds, int eval_every = 0) {
  fl::SimulationConfig cfg;
  cfg.rounds = rounds;
  cfg.train = fl::TrainConfig{/*epochs=*/1, /*batch_size=*/32};
  cfg.seed = 321;
  cfg.eval_every = eval_every;
  cfg.faults.drop_up = 0.15;  // exercises retries + fault counters
  cfg.min_clients = 2;
  cfg.max_retries = 2;
  return cfg;
}

fl::FederatedSimulation make_durable_sim(int rounds, int eval_every = 0) {
  return fl::FederatedSimulation(tiny_mlp_factory(2, 2), easy_split(3, 300, 11),
                                 durable_config(rounds, eval_every),
                                 fl::DefenseBundle{});
}

std::vector<std::uint8_t> full_state(const fl::FederatedSimulation& sim) {
  BinaryWriter w;
  sim.save_full_state(w);
  return w.buffer();
}

TEST(DurableSimTest, RecoverFromEmptyStoreIsANoOp) {
  store::RoundStore s(fresh_dir("sim_empty") + "/store");
  fl::FederatedSimulation sim = make_durable_sim(4);
  sim.attach_store(&s);
  EXPECT_EQ(sim.recover_from_store(), 0);
  EXPECT_TRUE(sim.round_log().empty());
}

TEST(DurableSimTest, WalOnlyRecoveryIsBitIdentical) {
  const std::string dir = fresh_dir("sim_wal") + "/store";
  fl::FederatedSimulation reference = make_durable_sim(4);
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make_durable_sim(4);
    sim.attach_store(&s, /*snapshot_every=*/100);  // never compacts: pure WAL
    for (int i = 0; i < 3; ++i) sim.run_round();
  }
  for (int i = 0; i < 3; ++i) reference.run_round();

  store::RoundStore s(dir);
  fl::FederatedSimulation recovered = make_durable_sim(4);
  recovered.attach_store(&s, 100);
  EXPECT_EQ(recovered.recover_from_store(), 3);
  EXPECT_EQ(full_state(recovered), full_state(reference));

  // The recovered run must continue exactly like the uninterrupted one.
  recovered.run_round();
  reference.run_round();
  EXPECT_EQ(full_state(recovered), full_state(reference));
}

TEST(DurableSimTest, SnapshotPlusWalWithEvalsRecoversBitIdentical) {
  const std::string dir = fresh_dir("sim_full") + "/store";
  fl::FederatedSimulation reference = make_durable_sim(4, /*eval_every=*/2);
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make_durable_sim(4, 2);
    sim.attach_store(&s, /*snapshot_every=*/2);
    sim.run();  // rounds 1..4 with evals at 2 and 4, snapshots at 2 and 4
  }
  reference.run();

  store::RoundStore s(dir);
  fl::FederatedSimulation recovered = make_durable_sim(4, 2);
  recovered.attach_store(&s, 2);
  EXPECT_EQ(recovered.recover_from_store(), 4);
  EXPECT_EQ(full_state(recovered), full_state(reference));
  EXPECT_EQ(recovered.history().size(), reference.history().size());
}

// A crash between the WAL append and its acknowledgment makes the writer
// re-append the same round on restart; replay must dedupe by round.
TEST(DurableSimTest, DuplicateRoundRecordsAreDeduped) {
  const std::string dir = fresh_dir("sim_dup") + "/store";
  fl::FederatedSimulation reference = make_durable_sim(4);
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make_durable_sim(4);
    sim.attach_store(&s, 100);
    for (int i = 0; i < 3; ++i) sim.run_round();
    // Duplicate the last committed record verbatim (copied out: no view
    // may be alive across a write to the log).
    std::vector<std::uint8_t> last;
    {
      const auto scan = store::Wal::scan(s.wal_path());
      ASSERT_EQ(scan.records.size(), 3u);
      last = copy_of(scan.records.back());
    }
    s.append(last);
  }
  for (int i = 0; i < 3; ++i) reference.run_round();

  store::RoundStore s(dir);
  fl::FederatedSimulation recovered = make_durable_sim(4);
  recovered.attach_store(&s, 100);
  EXPECT_EQ(recovered.recover_from_store(), 3);
  EXPECT_EQ(recovered.round_log().size(), 3u);
  EXPECT_EQ(full_state(recovered), full_state(reference));
}

// A corrupt record mid-log must cost only the records from it onward —
// longest-valid-prefix, never a crash.
TEST(DurableSimTest, CorruptMiddleRecordStopsReplayAtThePrefix) {
  const std::string dir = fresh_dir("sim_corrupt") + "/store";
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make_durable_sim(4);
    sim.attach_store(&s, 100);
    for (int i = 0; i < 3; ++i) sim.run_round();
  }
  // Re-frame record 2 with valid CRC but garbage payload: serde-level
  // corruption that the CRC cannot catch.
  {
    // Copied out first: reset() truncates the log under any live view.
    const auto records = copies_of(store::Wal::scan(dir + "/wal.log").records);
    ASSERT_EQ(records.size(), 3u);
    std::vector<std::uint8_t> mangled = records[1];
    mangled[0] = 0xEE;  // unknown record kind
    store::Wal wal(dir + "/wal.log");
    wal.reset();
    wal.append(records[0]);
    wal.append(mangled);
    wal.append(records[2]);
  }
  store::RoundStore s(dir);
  fl::FederatedSimulation recovered = make_durable_sim(4);
  recovered.attach_store(&s, 100);
  EXPECT_EQ(recovered.recover_from_store(), 1);  // only round 1 survives
  EXPECT_EQ(recovered.round_log().size(), 1u);
}

// A record whose CRC holds but whose bytes end inside a client's
// parameters stops replay there. The global delta and earlier clients of
// that record were already applied, so recovery rewinds and keeps exactly
// the state of the records before it.
TEST(DurableSimTest, RecordCutInsideClientParamsKeepsTheLongestValidPrefix) {
  const std::string dir = fresh_dir("sim_cut_params") + "/store";
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make_durable_sim(4);
    sim.attach_store(&s, 100);
    for (int i = 0; i < 3; ++i) sim.run_round();
  }
  fl::FederatedSimulation reference = make_durable_sim(4);
  reference.run_round();
  const std::vector<std::uint8_t> after_one = full_state(reference);
  reference.run_round();

  const auto records = copies_of(store::Wal::scan(dir + "/wal.log").records);
  ASSERT_EQ(records.size(), 3u);
  // Round 2's record holds the post-round state of every client it
  // touched; find one client's parameters in it and cut there.
  std::size_t cut = 0;
  for (fl::FlClient& c : reference.clients()) {
    BinaryWriter w;
    nn::write_flat_params(w, c.model().parameters());
    const auto at = std::search(records[1].begin(), records[1].end(), w.buffer().begin(),
                                w.buffer().end());
    if (at == records[1].end()) continue;
    cut = static_cast<std::size_t>(at - records[1].begin()) + w.size() / 2;
    break;
  }
  ASSERT_GT(cut, 0u) << "no client state found in round 2's record";
  {
    store::Wal wal(dir + "/wal.log");
    wal.reset();
    wal.append(records[0]);
    wal.append(std::span<const std::uint8_t>(records[1]).first(cut));
    wal.append(records[2]);
  }
  store::RoundStore s(dir);
  fl::FederatedSimulation recovered = make_durable_sim(4);
  recovered.attach_store(&s, 100);
  EXPECT_EQ(recovered.recover_from_store(), 1);
  EXPECT_EQ(recovered.round_log().size(), 1u);
  EXPECT_EQ(full_state(recovered), after_one);
}

// A simulation that recovered goes on writing to the same store: its next
// snapshot truncates the WAL the recovery had mapped, and a second
// recovery from the compacted store still matches the uninterrupted run.
TEST(DurableSimTest, RecoverThenCompactThenRecoverAgain) {
  const std::string dir = fresh_dir("sim_recompact") + "/store";
  fl::FederatedSimulation reference = make_durable_sim(5);
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make_durable_sim(5);
    sim.attach_store(&s, /*snapshot_every=*/3);
    sim.run_round();
    sim.run_round();  // WAL only: two round records
  }
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation resumed = make_durable_sim(5);
    resumed.attach_store(&s, 3);
    ASSERT_EQ(resumed.recover_from_store(), 2);
    resumed.run_round();  // compacts: snapshot at round 3, WAL truncated
    resumed.run_round();  // one record on the fresh WAL
  }
  for (int i = 0; i < 4; ++i) reference.run_round();

  store::RoundStore s(dir);
  {
    const auto rec = s.recover();
    EXPECT_EQ(rec.snapshot_round, 3);
    EXPECT_EQ(rec.wal_records.size(), 1u);
  }
  fl::FederatedSimulation recovered = make_durable_sim(5);
  recovered.attach_store(&s, 3);
  EXPECT_EQ(recovered.recover_from_store(), 4);
  EXPECT_EQ(full_state(recovered), full_state(reference));
}

// ------------------------------------------------------- in-place restore ----

std::vector<float> values_of(nn::Model& m) {
  const nn::FlatParams p = m.parameters();
  return {p.as_span().begin(), p.as_span().end()};
}

TEST(InPlaceRestoreTest, RoundTripsIntoAModelOfTheSameLayout) {
  Rng rng(5);
  nn::Model src = testing::make_tiny_mlp(4, 3, rng);
  nn::Model dst = testing::make_tiny_mlp(4, 3, rng);
  BinaryWriter w;
  nn::write_flat_params(w, src.parameters());
  BinaryReader r(w.buffer());
  nn::read_flat_params_into(r, dst);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(values_of(dst), values_of(src));
}

TEST(InPlaceRestoreTest, ForeignLayerIndexThrowsAndLeavesTensorsUntouched) {
  Rng rng(6);
  nn::Model model = testing::make_tiny_mlp(4, 3, rng);
  const std::vector<float> before = values_of(model);
  for (nn::Model other : {testing::make_tiny_mlp(4, 2, rng), testing::make_wide_mlp(4, 3, rng)}) {
    BinaryWriter w;
    nn::write_flat_params(w, other.parameters());
    BinaryReader r(w.buffer());
    EXPECT_THROW(nn::read_flat_params_into(r, model), Error);
    EXPECT_EQ(values_of(model), before);
  }
}

TEST(InPlaceRestoreTest, TooFewFloatsThrowsAndLeavesTensorsUntouched) {
  Rng rng(7);
  nn::Model model = testing::make_tiny_mlp(4, 3, rng);
  nn::Model src = testing::make_tiny_mlp(4, 3, rng);
  const std::vector<float> before = values_of(model);
  const nn::FlatParams p = src.parameters();
  // A float count one short of the index's, with its floats all present.
  {
    BinaryWriter w;
    nn::write_layer_index(w, *p.index());
    w.write_f32_span(p.as_span().data(), p.as_span().size() - 1);
    BinaryReader r(w.buffer());
    EXPECT_THROW(nn::read_flat_params_into(r, model), Error);
    EXPECT_EQ(values_of(model), before);
  }
  // The right count, but the buffer ends at every point inside the floats.
  BinaryWriter w;
  nn::write_flat_params(w, p);
  const std::size_t payload = p.as_span().size() * sizeof(float);
  for (std::size_t cut = w.size() - payload; cut < w.size(); cut += 7) {
    BinaryReader r(w.buffer().data(), cut);
    EXPECT_THROW(nn::read_flat_params_into(r, model), Error) << "cut at " << cut;
    EXPECT_EQ(values_of(model), before) << "cut at " << cut;
  }
}

// The same through a client's saved state, as WAL records and snapshots
// carry it: another model's state is refused by name, the model untouched.
TEST(InPlaceRestoreTest, ClientStateOfAnotherModelThrowsAndLeavesTheModelUntouched) {
  fl::FederatedSimulation sim = make_durable_sim(4);
  fl::FederatedSimulation other(tiny_mlp_factory(2, 3), easy_split(3, 300, 11),
                                durable_config(4), fl::DefenseBundle{});
  BinaryWriter w;
  other.clients()[0].save_state(w);
  fl::FlClient& client = sim.clients()[0];
  const std::vector<float> before = values_of(client.model());
  BinaryReader r(w.buffer());
  EXPECT_THROW(client.restore_state(r), Error);
  EXPECT_EQ(values_of(client.model()), before);
}

TEST(DurableSimTest, FullStateRejectsMismatchedConfig) {
  fl::FederatedSimulation a = make_durable_sim(4);
  a.run_round();
  BinaryWriter w;
  a.save_full_state(w);

  fl::SimulationConfig other = durable_config(4);
  other.seed = 999;  // different schedule: replay would silently diverge
  fl::FederatedSimulation b(tiny_mlp_factory(2, 2), easy_split(3, 300, 11), other,
                            fl::DefenseBundle{});
  BinaryReader r(w.buffer());
  EXPECT_THROW(b.restore_full_state(r), Error);
}

// Every TransportStats counter — the original in-process seven plus the
// eight socket wire counters — must survive the durable serde verbatim.
// A field silently dropped here would read back as zero after a restart
// and the bit-identical recovery contract would quietly rot.
TEST(DurableSimTest, TransportStatsSerdeRoundTripsEveryCounter) {
  fl::TransportStats s;
  s.messages_up = 101;
  s.messages_down = 102;
  s.bytes_up = 103;
  s.bytes_down = 104;
  s.frame_bytes_up = 105;
  s.frame_bytes_down = 106;
  s.simulated_latency_seconds = 0.12345678901234567;
  s.socket_frames_tx = 107;
  s.socket_frames_rx = 108;
  s.socket_bytes_tx = 109;
  s.socket_bytes_rx = 110;
  s.socket_reconnects = 111;
  s.socket_evictions = 112;
  s.socket_queue_drops = 113;
  s.socket_protocol_errors = 114;

  BinaryWriter w;
  fl::write_transport_stats(w, s);
  BinaryReader r(w.buffer());
  const fl::TransportStats back = fl::read_transport_stats(r);

  EXPECT_EQ(back.messages_up, s.messages_up);
  EXPECT_EQ(back.messages_down, s.messages_down);
  EXPECT_EQ(back.bytes_up, s.bytes_up);
  EXPECT_EQ(back.bytes_down, s.bytes_down);
  EXPECT_EQ(back.frame_bytes_up, s.frame_bytes_up);
  EXPECT_EQ(back.frame_bytes_down, s.frame_bytes_down);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.simulated_latency_seconds),
            std::bit_cast<std::uint64_t>(s.simulated_latency_seconds));
  EXPECT_EQ(back.socket_frames_tx, s.socket_frames_tx);
  EXPECT_EQ(back.socket_frames_rx, s.socket_frames_rx);
  EXPECT_EQ(back.socket_bytes_tx, s.socket_bytes_tx);
  EXPECT_EQ(back.socket_bytes_rx, s.socket_bytes_rx);
  EXPECT_EQ(back.socket_reconnects, s.socket_reconnects);
  EXPECT_EQ(back.socket_evictions, s.socket_evictions);
  EXPECT_EQ(back.socket_queue_drops, s.socket_queue_drops);
  EXPECT_EQ(back.socket_protocol_errors, s.socket_protocol_errors);

  // merge() must accumulate the same full set of fields the serde carries.
  fl::TransportStats doubled = s;
  doubled.merge(s);
  EXPECT_EQ(doubled.messages_up, 2 * s.messages_up);
  EXPECT_EQ(doubled.frame_bytes_down, 2 * s.frame_bytes_down);
  EXPECT_EQ(doubled.socket_frames_tx, 2 * s.socket_frames_tx);
  EXPECT_EQ(doubled.socket_bytes_rx, 2 * s.socket_bytes_rx);
  EXPECT_EQ(doubled.socket_protocol_errors, 2 * s.socket_protocol_errors);
}

// Mid-run restart over the *socket* transport: recovery must restore the
// absolute transport counters (wire counters included) so the continued
// run's accounting is bit-identical to the uninterrupted one.
TEST(DurableSimTest, MidRunRestartRestoresSocketTransportStatsExactly) {
  const std::string dir = fresh_dir("sim_sockstats") + "/store";
  fl::SimulationConfig cfg = durable_config(4);
  cfg.socket_transport = true;
  const auto make = [&cfg] {
    return fl::FederatedSimulation(tiny_mlp_factory(2, 2), easy_split(3, 300, 11),
                                   cfg, fl::DefenseBundle{});
  };

  fl::FederatedSimulation reference = make();
  {
    store::RoundStore s(dir);
    fl::FederatedSimulation sim = make();
    sim.attach_store(&s, /*snapshot_every=*/100);
    sim.run_round();
    sim.run_round();
  }  // "restart": the first process's state dies with this scope

  for (int i = 0; i < 4; ++i) reference.run_round();

  store::RoundStore s(dir);
  fl::FederatedSimulation recovered = make();
  recovered.attach_store(&s, 100);
  EXPECT_EQ(recovered.recover_from_store(), 2);
  recovered.run_round();
  recovered.run_round();

  const fl::TransportStats& a = recovered.transport().stats();
  const fl::TransportStats& b = reference.transport().stats();
  EXPECT_GT(a.socket_frames_tx, 0u);  // the wire really was exercised
  EXPECT_EQ(a.messages_up, b.messages_up);
  EXPECT_EQ(a.messages_down, b.messages_down);
  EXPECT_EQ(a.bytes_up, b.bytes_up);
  EXPECT_EQ(a.bytes_down, b.bytes_down);
  EXPECT_EQ(a.frame_bytes_up, b.frame_bytes_up);
  EXPECT_EQ(a.frame_bytes_down, b.frame_bytes_down);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.simulated_latency_seconds),
            std::bit_cast<std::uint64_t>(b.simulated_latency_seconds));
  EXPECT_EQ(a.socket_frames_tx, b.socket_frames_tx);
  EXPECT_EQ(a.socket_frames_rx, b.socket_frames_rx);
  EXPECT_EQ(a.socket_bytes_tx, b.socket_bytes_tx);
  EXPECT_EQ(a.socket_bytes_rx, b.socket_bytes_rx);
  EXPECT_EQ(a.socket_reconnects, b.socket_reconnects);
  EXPECT_EQ(a.socket_evictions, b.socket_evictions);
  EXPECT_EQ(a.socket_queue_drops, b.socket_queue_drops);
  EXPECT_EQ(a.socket_protocol_errors, b.socket_protocol_errors);
  EXPECT_EQ(full_state(recovered), full_state(reference));
}

TEST(DurableSimTest, AtomicCheckpointSurvivesOverwrite) {
  const std::string dir = fresh_dir("ckpt_atomic");
  const std::string path = dir + "/sim.ckpt";
  fl::FederatedSimulation sim = make_durable_sim(4);
  sim.run_round();
  store::atomic_write_file(path, full_state(sim));
  const auto first = store::read_file(path);
  sim.run_round();
  store::atomic_write_file(path, full_state(sim));  // atomic replace
  const auto second = store::read_file(path);
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_NE(*first, *second);
  EXPECT_FALSE(store::path_exists(path + ".tmp"));

  fl::FederatedSimulation resumed = make_durable_sim(4);
  BinaryReader r(*second);
  resumed.restore_full_state(r);
  EXPECT_EQ(resumed.server().round(), 2);
  EXPECT_EQ(full_state(resumed), full_state(sim));
}

}  // namespace
}  // namespace dinar

#include "hypergraph/scan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/mmap.hpp"

namespace fhp {
namespace {

std::vector<std::string> lines_of(std::string_view text, char comment) {
  ByteScanner scanner(text, comment);
  LineSpan line;
  std::vector<std::string> out;
  while (scanner.next(line)) out.emplace_back(line.view());
  return out;
}

TEST(ByteScannerTest, SplitsTrimsAndDropsBlanks) {
  const auto lines = lines_of("  a b \n\n\t\n c\nd", '%');
  ASSERT_EQ(lines.size(), 3U);
  EXPECT_EQ(lines[0], "a b");
  EXPECT_EQ(lines[1], "c");
  EXPECT_EQ(lines[2], "d");  // last line has no trailing newline
}

TEST(ByteScannerTest, StripsCommentsLikeLegacyParser) {
  const auto lines = lines_of("% full comment\n1 2 % trailing\n%\n3", '%');
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_EQ(lines[0], "1 2");
  EXPECT_EQ(lines[1], "3");
}

TEST(ByteScannerTest, TrimsCarriageReturns) {
  const auto lines = lines_of("1 2\r\n3 4\r\n", '#');
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_EQ(lines[0], "1 2");
  EXPECT_EQ(lines[1], "3 4");
}

TEST(ByteScannerTest, CountsContentLines) {
  ByteScanner scanner("a\n% c\n\nb\n", '%');
  LineSpan line;
  while (scanner.next(line)) {
  }
  EXPECT_EQ(scanner.content_lines(), 2U);
}

TEST(ByteScannerTest, EmptyInput) {
  ByteScanner scanner("", '%');
  LineSpan line;
  EXPECT_FALSE(scanner.next(line));
  EXPECT_EQ(scanner.content_lines(), 0U);
}

TEST(TokenScannerTest, SplitsOnRunsOfWhitespace) {
  ByteScanner lines("  a\t\tbb   ccc \n", '%');
  LineSpan line;
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(count_tokens(line), 3U);
  TokenScanner tokens(line);
  std::string_view tok;
  ASSERT_TRUE(tokens.next(tok));
  EXPECT_EQ(tok, "a");
  ASSERT_TRUE(tokens.next(tok));
  EXPECT_EQ(tok, "bb");
  ASSERT_TRUE(tokens.next(tok));
  EXPECT_EQ(tok, "ccc");
  EXPECT_FALSE(tokens.next(tok));
}

// --- SWAR digit parsing --------------------------------------------------

std::uint64_t load_chunk(const char* digits) {
  std::uint64_t chunk = 0;
  std::memcpy(&chunk, digits, 8);
  return chunk;
}

TEST(SwarTest, EightDigitClassifier) {
  EXPECT_TRUE(is_made_of_eight_digits_fast(load_chunk("01234567")));
  EXPECT_TRUE(is_made_of_eight_digits_fast(load_chunk("99999999")));
  EXPECT_FALSE(is_made_of_eight_digits_fast(load_chunk("0123456a")));
  EXPECT_FALSE(is_made_of_eight_digits_fast(load_chunk("0123 567")));
  EXPECT_FALSE(is_made_of_eight_digits_fast(load_chunk("/1234567")));  // '0'-1
  EXPECT_FALSE(is_made_of_eight_digits_fast(load_chunk(":1234567")));  // '9'+1
}

TEST(SwarTest, EightDigitFoldMatchesScalarOracle) {
  // Deterministic xorshift sweep: the SWAR fold must agree with the
  // obvious digit-at-a-time loop on arbitrary 8-digit strings.
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (int iter = 0; iter < 2000; ++iter) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const std::uint32_t value = static_cast<std::uint32_t>(state % 100000000U);
    char digits[9];
    std::snprintf(digits, sizeof digits, "%08u", value);
    const std::uint64_t chunk = load_chunk(digits);
    ASSERT_TRUE(is_made_of_eight_digits_fast(chunk)) << digits;
    EXPECT_EQ(parse_eight_digits_unrolled(chunk), value) << digits;
  }
}

TEST(SwarTest, ParseU64Boundaries) {
  EXPECT_EQ(parse_u64("0", "t"), 0ULL);
  EXPECT_EQ(parse_u64("42", "t"), 42ULL);
  EXPECT_EQ(parse_u64("00000000000000000007", "t"), 7ULL);
  EXPECT_EQ(parse_u64("12345678", "t"), 12345678ULL);          // one SWAR block
  EXPECT_EQ(parse_u64("1234567890123456", "t"), 1234567890123456ULL);
  EXPECT_EQ(parse_u64("18446744073709551615", "t"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW((void)parse_u64("18446744073709551616", "t"), IoError);
  EXPECT_THROW((void)parse_u64("99999999999999999999", "t"), IoError);
  EXPECT_THROW((void)parse_u64("", "t"), IoError);
  EXPECT_THROW((void)parse_u64("12x", "t"), IoError);
  EXPECT_THROW((void)parse_u64("1234x678", "t"), IoError);  // inside a block
  EXPECT_THROW((void)parse_u64("-1", "t"), IoError);        // no signs here
}

TEST(SwarTest, ParseI64SignsAndBoundaries) {
  EXPECT_EQ(parse_i64("-5", "t"), -5);
  EXPECT_EQ(parse_i64("+5", "t"), 5);
  EXPECT_EQ(parse_i64("9223372036854775807", "t"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_i64("-9223372036854775808", "t"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW((void)parse_i64("9223372036854775808", "t"), IoError);
  EXPECT_THROW((void)parse_i64("-9223372036854775809", "t"), IoError);
  EXPECT_THROW((void)parse_i64("-", "t"), IoError);
  EXPECT_THROW((void)parse_i64("+", "t"), IoError);
}

// --- Arena ---------------------------------------------------------------

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(64);
  const auto bytes = arena.alloc<char>(3);
  const auto doubles = arena.alloc<double>(4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(doubles.data()) %
                alignof(double),
            0U);
  ASSERT_EQ(bytes.size(), 3U);
  ASSERT_EQ(doubles.size(), 4U);
  bytes[0] = 'x';
  doubles[0] = 1.5;
  EXPECT_EQ(bytes[0], 'x');
  EXPECT_EQ(doubles[0], 1.5);
}

TEST(ArenaTest, GrowsPastTheInitialBlock) {
  Arena arena(16);
  std::vector<std::span<std::uint64_t>> spans;
  for (int i = 0; i < 100; ++i) {
    auto s = arena.alloc<std::uint64_t>(32);
    s[0] = static_cast<std::uint64_t>(i);
    spans.push_back(s);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)][0],
              static_cast<std::uint64_t>(i));
  }
  EXPECT_GE(arena.bytes_used(), 100U * 32U * sizeof(std::uint64_t));
}

TEST(ArenaTest, ResetReusesMemory) {
  Arena arena(1024);
  (void)arena.alloc<int>(100);
  const std::size_t used = arena.bytes_used();
  EXPECT_GE(used, 400U);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0U);
  const auto again = arena.alloc<int>(100);
  ASSERT_EQ(again.size(), 100U);
}

TEST(ArenaTest, ZeroCountAllocation) {
  Arena arena;
  const auto empty = arena.alloc<int>(0);
  EXPECT_EQ(empty.size(), 0U);
}

// --- MappedFile ----------------------------------------------------------

class MappedFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_path("fhp_test_mmap");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string write_file(const std::string& name, const std::string& text) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary);
    out << text;
    return path;
  }
  std::filesystem::path dir_;
};

TEST_F(MappedFileTest, RoundTripsFileBytes) {
  const std::string text = "3 4\n1 2\n2 3 4\n1 4\n";
  const MappedFile file(write_file("a.hgr", text));
  EXPECT_EQ(file.size(), text.size());
  EXPECT_EQ(file.view(), text);
}

TEST_F(MappedFileTest, EmptyFileHasEmptyView) {
  const MappedFile file(write_file("empty.txt", ""));
  EXPECT_EQ(file.size(), 0U);
  EXPECT_TRUE(file.view().empty());
}

TEST_F(MappedFileTest, MissingFileThrowsIoError) {
  EXPECT_THROW(MappedFile((dir_ / "nope.hgr").string()), IoError);
}

TEST_F(MappedFileTest, DirectoryThrowsIoError) {
  EXPECT_THROW(MappedFile(dir_.string()), IoError);
}

TEST_F(MappedFileTest, MoveTransfersTheView) {
  const std::string text = "payload";
  MappedFile a(write_file("move.txt", text));
  const MappedFile b(std::move(a));
  EXPECT_EQ(b.view(), text);
}

}  // namespace
}  // namespace fhp

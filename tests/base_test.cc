// Unit tests for src/base: rng, stats, strings, bytes.
#include <gtest/gtest.h>

#include <set>

#include "src/base/bytes.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/strings.h"

namespace kite {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All values hit.
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, ForkIndependent) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(StatsTest, BasicMoments) {
  Stats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  EXPECT_NEAR(s.StdDev(), 2.138, 0.001);
  EXPECT_NEAR(s.RelStdDevPercent(), 42.76, 0.01);
}

TEST(StatsTest, PercentileNearestRank) {
  Stats s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
}

TEST(StatsTest, MergeCombines) {
  Stats a;
  Stats b;
  a.Add(1.0);
  b.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(StatsTest, EmptyIsSafe) {
  Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.StdDev(), 0.0);
  EXPECT_DOUBLE_EQ(s.RelStdDevPercent(), 0.0);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, SplitPathDropsEmpty) {
  auto parts = SplitPath("/a//b/c/");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(SplitPath("").empty());
  EXPECT_TRUE(SplitPath("/").empty());
}

TEST(StringsTest, JoinPathRoundTrip) {
  EXPECT_EQ(JoinPath({"a", "b"}), "/a/b");
  EXPECT_EQ(JoinPath({}), "/");
}

TEST(StringsTest, PathIsUnder) {
  EXPECT_TRUE(PathIsUnder("/a/b", "/a"));
  EXPECT_TRUE(PathIsUnder("/a", "/a"));
  EXPECT_FALSE(PathIsUnder("/ab", "/a"));
  EXPECT_TRUE(PathIsUnder("/anything", "/"));
  EXPECT_FALSE(PathIsUnder("/a", "/a/b"));
}

TEST(StringsTest, ParseDecimal) {
  EXPECT_EQ(ParseDecimal("0"), 0);
  EXPECT_EQ(ParseDecimal("12345"), 12345);
  EXPECT_EQ(ParseDecimal(""), -1);
  EXPECT_EQ(ParseDecimal("12a"), -1);
  EXPECT_EQ(ParseDecimal("-5"), -1);
}

TEST(BytesTest, WriterReaderRoundTrip) {
  Buffer buf;
  ByteWriter w(&buf);
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  ByteReader r(buf);
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, ReaderTruncationSetsNotOk) {
  Buffer buf = {0x01};
  ByteReader r(buf);
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, BigEndianOrder) {
  Buffer buf;
  ByteWriter w(&buf);
  w.U16(0x0102);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(BytesTest, InternetChecksumKnownVector) {
  // RFC 1071 example-style check: checksum of data + its checksum is 0.
  Buffer data = {0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06};
  uint16_t csum = InternetChecksum(data);
  Buffer with;
  with.insert(with.end(), data.begin(), data.end());
  with.push_back(static_cast<uint8_t>(csum >> 8));
  with.push_back(static_cast<uint8_t>(csum));
  EXPECT_EQ(InternetChecksum(with), 0);
}

TEST(BytesTest, ChecksumOddLength) {
  Buffer data = {0x01, 0x02, 0x03};
  // Must not crash and must be stable.
  EXPECT_EQ(InternetChecksum(data), InternetChecksum(data));
}

// RFC 1071 reference: 16 bits per step, big-endian words, 64-bit sum.
uint16_t ReferenceChecksum(std::span<const uint8_t> data, uint32_t initial) {
  uint64_t sum = initial;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

TEST(BytesTest, ChecksumMatchesReferenceAtEveryLengthAndOffset) {
  // The largest UDP/TCP pseudo-header seed: both addresses 255.255.255.255,
  // protocol 17 and a 64 KB L4 length.
  const uint32_t kPseudo64k = 4 * 0xffff + 17 + 65535;
  const uint32_t seeds[] = {0, 1, 0xffff, 0x10000, 0x1fffe, kPseudo64k, 0xffffffff};
  Rng rng(1071);
  Buffer random(257 + 8);
  for (auto& b : random) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  Buffer ones(257 + 8, 0xff);
  Buffer zeros(257 + 8, 0x00);
  for (const Buffer* buf : {&random, &ones, &zeros}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t len = 0; len <= 257; ++len) {
        auto span = std::span<const uint8_t>(*buf).subspan(offset, len);
        for (uint32_t seed : seeds) {
          ASSERT_EQ(InternetChecksum(span, seed), ReferenceChecksum(span, seed))
              << "offset " << offset << " len " << len << " seed " << seed;
        }
      }
    }
  }
}

TEST(BytesTest, Fnv1aDistinguishes) {
  Buffer a = {1, 2, 3};
  Buffer b = {1, 2, 4};
  EXPECT_NE(Fnv1a(a), Fnv1a(b));
}

}  // namespace
}  // namespace kite

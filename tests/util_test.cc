#include <array>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/aligned.h"
#include "util/bitops.h"
#include "util/checksum.h"
#include "util/fields.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"

namespace hashjoin {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk gone");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk gone");
  EXPECT_EQ(s.ToString(), "IOError: disk gone");
}

TEST(StatusTest, AllCodesHaveNames) {
  std::set<std::string> names;
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kResourceExhausted,
        StatusCode::kFailedPrecondition, StatusCode::kInternal,
        StatusCode::kIOError, StatusCode::kUnimplemented,
        StatusCode::kDataLoss}) {
    EXPECT_STRNE(StatusCodeToString(c), "Unknown");
    // Names must also be distinct, or logs become ambiguous.
    EXPECT_TRUE(names.insert(StatusCodeToString(c)).second)
        << StatusCodeToString(c);
  }
}

TEST(StatusTest, DataLossRoundTripsThroughToString) {
  Status s = Status::DataLoss("checksum mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.ToString(), "DataLoss: checksum mismatch");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(ReturnIfErrorTest, PropagatesError) {
  auto fn = []() -> Status {
    HJ_RETURN_IF_ERROR(Status::Internal("boom"));
    return Status::OK();
  };
  EXPECT_EQ(fn().code(), StatusCode::kInternal);
}

TEST(AssignOrReturnTest, AssignsValueAndPropagatesError) {
  auto inner = [](bool fail) -> StatusOr<int> {
    if (fail) return Status::IOError("device error");
    return 7;
  };
  auto fn = [&](bool fail) -> StatusOr<int> {
    HJ_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  auto ok = fn(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 14);
  auto err = fn(true);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kIOError);
}

TEST(ChecksumTest, KnownVectors) {
  // The canonical CRC-32 (reflected, poly 0xEDB88320) check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(ChecksumTest, ChainingMatchesOneShot) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  size_t n = 43;
  uint32_t whole = Crc32(data, n);
  for (size_t split : {size_t(1), size_t(7), size_t(20), n - 1}) {
    uint32_t part = Crc32(data, split);
    EXPECT_EQ(Crc32(data + split, n - split, part), whole) << split;
  }
}

TEST(ChecksumTest, SensitiveToSingleBitFlips) {
  // Every single-bit error in an 8 KB page must change its CRC.
  std::vector<uint8_t> buf(8192, 0xA5);
  const uint32_t base = Crc32(buf.data(), buf.size());
  size_t missed = 0;
  for (size_t bit = 0; bit < buf.size() * 8; ++bit) {
    buf[bit / 8] ^= uint8_t(1u << (bit % 8));
    if (Crc32(buf.data(), buf.size()) == base) ++missed;
    buf[bit / 8] ^= uint8_t(1u << (bit % 8));
  }
  EXPECT_EQ(missed, 0u);
  EXPECT_EQ(Crc32(buf.data(), buf.size()), base);
}

// CRC-32 one bit at a time, straight from the reflected polynomial: the
// reference each kernel is checked against.
uint32_t BitwiseCrc32(const uint8_t* data, size_t length, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < length; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

using Crc32Fn = uint32_t (*)(const void*, size_t, uint32_t);

// Compares `crc` with the bitwise reference: every length 0-9000, the
// lengths around the kernel's 16- and 64-byte blocks at every start
// offset 0-15, random seeds, and a chain split at every offset.
void ExpectMatchesBitwise(Crc32Fn crc) {
  Rng rng(2009);
  std::vector<uint8_t> buf(9000 + 16);
  for (uint8_t& b : buf) b = uint8_t(rng.Next());

  for (size_t len = 0; len <= 9000; ++len) {
    const size_t off = len % 16;
    const uint32_t seed = uint32_t(rng.Next());
    ASSERT_EQ(crc(buf.data() + off, len, seed),
              BitwiseCrc32(buf.data() + off, len, seed))
        << "len " << len << " off " << off;
  }
  for (size_t len : {15, 16, 63, 64, 65, 79, 80, 8191, 8192}) {
    for (size_t off = 0; off < 16; ++off) {
      for (uint32_t seed : {0u, uint32_t(rng.Next())}) {
        ASSERT_EQ(crc(buf.data() + off, len, seed),
                  BitwiseCrc32(buf.data() + off, len, seed))
            << "len " << len << " off " << off << " seed " << seed;
      }
    }
  }
  const uint32_t whole = BitwiseCrc32(buf.data(), 200, 0);
  for (size_t split = 0; split <= 200; ++split) {
    const uint32_t head = crc(buf.data(), split, 0);
    ASSERT_EQ(crc(buf.data() + split, 200 - split, head), whole) << split;
  }
}

TEST(ChecksumTest, PortableKernelMatchesBitwiseReference) {
  ExpectMatchesBitwise(internal_checksum::Crc32Portable);
}

TEST(ChecksumTest, ClmulKernelMatchesBitwiseReference) {
  if (!internal_checksum::ClmulSupported()) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ or SSE4.1";
  }
  ExpectMatchesBitwise(internal_checksum::Crc32Clmul);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextBounded(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) trues += rng.NextBool(0.3);
  EXPECT_NEAR(double(trues) / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(19);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
  EXPECT_NE(v, orig);  // 1/10! chance of false failure
}

TEST(ZipfTest, InRangeAndSkewed) {
  ZipfGenerator zipf(1000, 0.99, 3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // The hottest value should be much hotter than the median.
  int max_count = 0;
  for (auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 20000 / 100);  // >1% on a single key out of 1000
}

TEST(BitopsTest, PowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(1023));
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(64), 64u);
  EXPECT_EQ(NextPowerOfTwo(65), 128u);
}

TEST(BitopsTest, Log2) {
  EXPECT_EQ(Log2(1), 0u);
  EXPECT_EQ(Log2(2), 1u);
  EXPECT_EQ(Log2(1024), 10u);
}

TEST(BitopsTest, RelativelyPrime) {
  EXPECT_TRUE(RelativelyPrime(9, 4));
  EXPECT_FALSE(RelativelyPrime(9, 6));
  EXPECT_TRUE(RelativelyPrime(7, 13));
}

TEST(BitopsTest, NextRelativelyPrimeProperties) {
  for (uint64_t m : {2ull, 31ull, 800ull, 1000ull}) {
    for (uint64_t v : {1ull, 10ull, 999ull, 4096ull}) {
      uint64_t r = NextRelativelyPrime(v, m);
      EXPECT_GE(r, v);
      EXPECT_TRUE(RelativelyPrime(r, m)) << r << " vs " << m;
    }
  }
}

TEST(BitopsTest, RoundUp) {
  EXPECT_EQ(RoundUp(0, 64), 0u);
  EXPECT_EQ(RoundUp(1, 64), 64u);
  EXPECT_EQ(RoundUp(64, 64), 64u);
  EXPECT_EQ(RoundUp(65, 64), 128u);
}

TEST(AlignedTest, AlignmentHonored) {
  for (size_t align : {64ul, 4096ul, 8192ul}) {
    void* p = AlignedAlloc(100, align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u);
    AlignedFree(p);
  }
}

TEST(AlignedTest, BufferIsUsable) {
  auto buf = MakeAlignedBuffer<uint64_t>(128);
  for (int i = 0; i < 128; ++i) buf[i] = i * 3;
  for (int i = 0; i < 128; ++i) EXPECT_EQ(buf[i], uint64_t(i * 3));
}

TEST(FlagsTest, ParsesForms) {
  const char* argv[] = {"prog", "--alpha=3",   "--beta", "4.5",
                        "--gamma", "--name=abc"};
  FlagParser flags;
  flags.Parse(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0), 4.5);
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, UnreadNamesFlagsNoCallAskedAbout) {
  const char* argv[] = {"prog", "--json=f.json", "--smoke", "--auto-tune",
                        "--benchmark_filter=x", "--scale=0.5"};
  FlagParser flags;
  flags.Parse(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.Unread(),
            (std::vector<std::string>{"auto-tune", "json", "scale",
                                      "smoke"}));
  EXPECT_TRUE(flags.Has("json"));
  EXPECT_TRUE(flags.GetBool("smoke", false));
  EXPECT_EQ(flags.GetInt("absent", 1), 1);  // reading an absent flag is fine
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 0.1), 0.5);
  // google-benchmark's own flags are never reported.
  EXPECT_EQ(flags.Unread(), std::vector<std::string>{"auto-tune"});
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  volatile uint64_t x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  EXPECT_GE(t.ElapsedNanos(), 0);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

TEST(StallTimerTest, Accumulates) {
  StallTimer t;
  t.Start();
  t.Stop();
  t.Start();
  t.Stop();
  EXPECT_GE(t.TotalNanos(), 0);
  t.Reset();
  EXPECT_EQ(t.TotalNanos(), 0);
}

// --- field lists (util/fields.h) ---

struct Inner {
  uint64_t reads = 0;
  uint64_t writes = 0;

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("reads", &Inner::reads);
    v("writes", &Inner::writes);
  }
};

struct Ledger {
  Inner io;
  uint64_t spills = 0;
  uint32_t deepest = 0;
  double seconds = 0;
  std::array<uint64_t, 2> hist{};

  uint64_t Total() const { return spills + io.reads; }

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("io", &Ledger::io);
    v("spills", &Ledger::spills);
    v("deepest", &Ledger::deepest, fields::Kind::kLevel);
    v("seconds", &Ledger::seconds);
    v("hist", &Ledger::hist, fields::kInternal);
    v("total", &Ledger::Total);
  }
};

struct Reading {
  std::optional<uint64_t> cycles;

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("cycles", &Reading::cycles);
  }
};

struct Unlisted {
  uint64_t listed = 0;
  uint64_t forgotten = 0;

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("listed", &Unlisted::listed);
  }
};

static_assert(fields::ListsEveryMember<Ledger>());
static_assert(!fields::ListsEveryMember<Unlisted>());

TEST(FieldsTest, DiffSubtractsCountersAndKeepsLevels) {
  Ledger before{{10, 20}, 3, 1, 0.5, {4, 5}};
  Ledger after{{15, 26}, 7, 4, 2.0, {6, 9}};
  Ledger d = fields::Diff(after, before);
  EXPECT_EQ(d.io.reads, 5u);
  EXPECT_EQ(d.io.writes, 6u);
  EXPECT_EQ(d.spills, 4u);
  EXPECT_EQ(d.deepest, 4u);  // a high-water mark is copied
  EXPECT_DOUBLE_EQ(d.seconds, 1.5);
  EXPECT_EQ(d.hist[0], 2u);
  EXPECT_EQ(d.hist[1], 4u);
}

TEST(FieldsTest, AddSumsCountersAndKeepsTheLargerLevel) {
  Ledger a{{1, 2}, 3, 5, 1.0, {1, 1}};
  const Ledger b{{10, 20}, 30, 2, 0.5, {2, 3}};
  fields::Add(a, b);
  EXPECT_EQ(a.io.reads, 11u);
  EXPECT_EQ(a.io.writes, 22u);
  EXPECT_EQ(a.spills, 33u);
  EXPECT_EQ(a.deepest, 5u);
  EXPECT_DOUBLE_EQ(a.seconds, 1.5);
  EXPECT_EQ(a.hist[1], 4u);
}

// A member JSON cannot hold is listed kInternal and left out.
struct WithRecords {
  uint64_t completed = 0;
  std::vector<Unlisted> records;

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("completed", &WithRecords::completed);
    v("records", &WithRecords::records, fields::kInternal);
  }
};

// The same member listed as an ordinary counter.
struct UntaggedRecords {
  uint64_t completed = 0;
  std::vector<Unlisted> records;

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("completed", &UntaggedRecords::completed);
    v("records", &UntaggedRecords::records);
  }
};

TEST(FieldsTest, JsonRejectsAMemberItCannotHoldUnlessInternal) {
  // AppendJson static_asserts this, so UntaggedRecords never reaches a
  // record with its "records" key silently missing.
  static_assert(!fields::JsonHoldsEveryMember<UntaggedRecords>());
  static_assert(fields::JsonHoldsEveryMember<WithRecords>());
  static_assert(fields::JsonHoldsEveryMember<Ledger>());
}

TEST(FieldsTest, JsonLeavesOutInternalMembersOfAnyType) {
  static_assert(fields::ListsEveryMember<WithRecords>());
  WithRecords w{3, {Unlisted{}}};
  JsonValue j = fields::ToJson(w);
  EXPECT_EQ(j.Find("completed")->AsInt(), 3);
  EXPECT_EQ(j.Find("records"), nullptr);
  EXPECT_EQ(fields::JsonKeys<WithRecords>(),
            std::vector<std::string>{"completed"});
}

TEST(FieldsTest, JsonWritesListedKeysDerivedValuesAndNulls) {
  Ledger l{{2, 3}, 4, 1, 0.25, {7, 7}};
  JsonValue j = fields::ToJson(l);
  EXPECT_EQ(j.FindPath("io.reads")->AsInt(), 2);
  EXPECT_EQ(j.Find("spills")->AsInt(), 4);
  EXPECT_EQ(j.Find("total")->AsInt(), 6);
  EXPECT_EQ(j.Find("hist"), nullptr);  // internal

  const std::vector<std::string> keys = fields::JsonKeys<Ledger>();
  EXPECT_EQ(keys, (std::vector<std::string>{"io.reads", "io.writes",
                                            "spills", "deepest", "seconds",
                                            "total"}));
  for (const std::string& k : keys) EXPECT_NE(j.FindPath(k), nullptr) << k;

  Reading r;
  EXPECT_TRUE(fields::ToJson(r).Find("cycles")->is_null());  // not 0
  r.cycles = 9;
  EXPECT_EQ(fields::ToJson(r).Find("cycles")->AsInt(), 9);
}

}  // namespace
}  // namespace hashjoin

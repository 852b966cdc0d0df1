// Unit tests for the common utilities: RNG determinism and distribution
// sanity, running statistics, tables, CSV quoting, and flag parsing.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <set>
#include <span>
#include <sstream>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace dragster::common {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, SubstreamsAreIndependentOfDrawOrder) {
  Rng root(7);
  Rng child1 = root.substream("alpha", 3);
  // Drawing from the root must not change what a later-derived substream
  // yields.
  Rng root2(7);
  for (int i = 0; i < 10; ++i) (void)root2.next_u64();
  Rng child2 = root2.substream("alpha", 3);
  // substream derives from the *initial* state, which next_u64 mutates; the
  // guarantee we need is same (seed,label,index) => same stream.
  Rng child3 = Rng(7).substream("alpha", 3);
  EXPECT_EQ(child1.next_u64(), child3.next_u64());
  (void)child2;
}

TEST(Rng, SubstreamsWithDifferentLabelsDiffer) {
  Rng root(7);
  Rng a = root.substream("alpha");
  Rng b = root.substream("beta");
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, SubstreamsWithDifferentIndicesDiffer) {
  Rng root(7);
  EXPECT_NE(root.substream("x", 0).next_u64(), root.substream("x", 1).next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(2, 5));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 2);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(29);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// FNV-1a over 10^4 draws of each sampler from three seeds, each seed's root
// stream and two substreams of it.  The hashes were taken from the
// out-of-line generator, so moving the samplers (inlining, reordering) must
// keep every draw's bits.
TEST(Rng, SequenceBitsArePinned) {
  auto real = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  struct Pin {
    const char* sampler;
    std::function<std::uint64_t(Rng&)> draw;
    std::uint64_t hash;
  };
  const std::vector<Pin> pins{
      {"next_u64", [](Rng& r) { return r.next_u64(); }, 0x65073a0985a9a6f4ULL},
      {"uniform", [&](Rng& r) { return real(r.uniform()); }, 0x4db5c698c5af8e9aULL},
      {"uniform_range", [&](Rng& r) { return real(r.uniform(-3.0, 5.0)); },
       0xe0b5120d027d3b69ULL},
      {"uniform_int", [](Rng& r) { return static_cast<std::uint64_t>(r.uniform_int(-7, 1000)); },
       0xb2efd5a80941fcadULL},
      {"normal", [&](Rng& r) { return real(r.normal()); }, 0xfca12891bf94c05bULL},
      {"normal_scaled", [&](Rng& r) { return real(r.normal(2.0, 0.5)); }, 0x3510b68fce05aaeeULL},
      // The cached second Box-Muller value must survive other draws.
      {"normal_interleaved",
       [&](Rng& r) { return real(r.normal()) ^ real(r.uniform()) ^ r.next_u64(); },
       0x85c1e480336bf891ULL},
      {"bernoulli", [](Rng& r) { return std::uint64_t{r.bernoulli(0.3)}; }, 0xb2e094b36c43fd24ULL},
  };
  for (const Pin& pin : pins) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
      const Rng root(seed);
      for (Rng rng : {root, root.substream("steps"), root.substream("cloud", 7)}) {
        for (int i = 0; i < 10'000; ++i) {
          const std::uint64_t w = pin.draw(rng);
          for (int byte = 0; byte < 8; ++byte) {
            h ^= (w >> (8 * byte)) & 0xffU;
            h *= 0x100000001b3ULL;
          }
        }
      }
    }
    EXPECT_EQ(h, pin.hash) << pin.sampler << " 0x" << std::hex << h;
  }
}

TEST(RunningStats, Empty) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
  EXPECT_EQ(stats.sum(), 40.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.5), 2.5);
}

TEST(Percentile, RejectsEmptyAndBadQuantile) {
  const std::vector<double> values{1.0};
  EXPECT_THROW((void)percentile(std::span<const double>{}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile(values, 1.5), std::invalid_argument);
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Csv, QuotesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.write_row(std::vector<std::string>{"t", "rate"});
  csv.write_row(std::vector<double>{1.5, 2.25});
  EXPECT_EQ(out.str(), "t,rate\n1.5,2.25\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3.5", "--beta", "7", "--gamma=1", "--name=x"};
  Flags flags(6, argv);
  EXPECT_DOUBLE_EQ(flags.get("alpha", 0.0), 3.5);
  EXPECT_EQ(flags.get("beta", std::int64_t{0}), 7);
  EXPECT_TRUE(flags.get("gamma", false));
  EXPECT_EQ(flags.get("name", std::string("")), "x");
}

TEST(Flags, PositionalAndRepeatedArgumentsThrowNamingThem) {
  // `simulate stray` used to run the default scenario, and a repeated flag
  // silently kept its last value.
  const auto expect_error = [](std::vector<const char*> argv, const std::string& named) {
    SCOPED_TRACE(named);
    try {
      const Flags flags(static_cast<int>(argv.size()), argv.data());
      FAIL() << "expected dragster::Error";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find(named), std::string::npos) << error.what();
    }
  };
  expect_error({"prog", "stray"}, "'stray'");
  expect_error({"prog", "--json", "a.json", "b.json"}, "'b.json'");
  expect_error({"prog", "--slots", "5", "--slots", "7"}, "--slots given twice");
  expect_error({"prog", "--slots=5", "--slots=5"}, "--slots given twice");
}

TEST(Flags, TracksUnusedFlags) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  Flags flags(3, argv);
  (void)flags.get("used", std::int64_t{0});
  const auto unused = flags.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Flags, RejectUnusedNamesEveryUnqueriedFlag) {
  const char* argv[] = {"prog", "--used=1", "--typo=2", "--bare"};
  const Flags flags(4, argv);
  (void)flags.get("used", std::int64_t{0});
  try {
    flags.reject_unused();
    FAIL() << "expected dragster::Error";
  } catch (const Error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("--bare, --typo"), std::string::npos) << message;
    EXPECT_EQ(message.find("--used"), std::string::npos) << message;
  }
  (void)flags.has("typo");
  (void)flags.get("bare", false);
  EXPECT_NO_THROW(flags.reject_unused());
}

TEST(Flags, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get("missing", std::string("def")), "def");
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Flags, MalformedNumbersThrowNamingTheFlag) {
  auto expect_error = [](const std::string& value, auto fallback) {
    SCOPED_TRACE(value);
    const std::string arg = "--slots=" + value;
    const char* argv[] = {"prog", arg.c_str()};
    const Flags flags(2, argv);
    try {
      (void)flags.get("slots", fallback);
      FAIL() << "expected dragster::Error";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("--slots"), std::string::npos) << error.what();
    }
  };
  // `--slots abc` used to read as 0 slots.
  expect_error("abc", std::int64_t{60});
  expect_error("abc", 0.0);
  expect_error("1.5x", 0.0);
  expect_error("2.5", std::int64_t{1});
  expect_error("+3", std::int64_t{1});
  expect_error("99999999999999999999", std::int64_t{1});
  expect_error("", std::int64_t{1});
}

TEST(Flags, BoolAcceptsOnlyBoolWordsOrNothing) {
  const char* argv[] = {"prog", "--a=yes", "--b", "0", "--c=no", "--d=1", "--e", "--vertical",
                        "stray"};
  const Flags flags(9, argv);
  EXPECT_TRUE(flags.get("a", false));
  EXPECT_FALSE(flags.get("b", true));
  EXPECT_FALSE(flags.get("c", true));
  EXPECT_TRUE(flags.get("d", false));
  EXPECT_TRUE(flags.get("e", false));
  // `simulate --vertical stray` used to run the vertical scheme: any word but
  // false/0/no read as true.
  try {
    (void)flags.get("vertical", false);
    FAIL() << "expected dragster::Error";
  } catch (const Error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("--vertical"), std::string::npos) << message;
    EXPECT_NE(message.find("'stray'"), std::string::npos) << message;
  }
  const char* empty[] = {"prog", "--verbose="};
  EXPECT_THROW((void)Flags(2, empty).get("verbose", false), Error);
}

TEST(Flags, ValuelessFlagIsOnlyABool) {
  const char* argv[] = {"prog", "--verbose", "--json", "--slots"};
  Flags flags(4, argv);
  EXPECT_TRUE(flags.get("verbose", false));
  EXPECT_TRUE(flags.has("json"));
  // A bare --json used to read as the string "true" and name the output file.
  EXPECT_THROW((void)flags.get("json", std::string("out.json")), Error);
  EXPECT_THROW((void)flags.get("slots", std::int64_t{60}), Error);
  EXPECT_THROW((void)flags.get("slots", 1.0), Error);
  // An explicit empty value is still a value.
  const char* empty[] = {"prog", "--csv="};
  EXPECT_EQ(Flags(2, empty).get("csv", std::string("x.csv")), "");
}

}  // namespace
}  // namespace dragster::common

//===- tests/SupportTests.cpp - support library unit tests --------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//

#include "support/Options.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/Suggest.h"
#include "support/Table.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

using namespace gpuwmm;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  unsigned Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2u);
}

TEST(RngTest, BelowStaysInBounds) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int I = 0; I != 200; ++I)
      EXPECT_LT(R.below(Bound), Bound);
  }
}

TEST(RngTest, BelowOneIsAlwaysZero) {
  Rng R(7);
  for (int I = 0; I != 50; ++I)
    EXPECT_EQ(R.below(1), 0u);
}

TEST(RngTest, RangeIsInclusive) {
  Rng R(3);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    const int64_t V = R.range(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, RealInUnitInterval) {
  Rng R(11);
  for (int I = 0; I != 1000; ++I) {
    const double V = R.real();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng R(5);
  for (int I = 0; I != 100; ++I) {
    EXPECT_FALSE(R.chance(0.0));
    EXPECT_TRUE(R.chance(1.0));
    EXPECT_FALSE(R.chance(-1.0));
    EXPECT_TRUE(R.chance(2.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng R(13);
  unsigned Hits = 0;
  const unsigned N = 20000;
  for (unsigned I = 0; I != N; ++I)
    Hits += R.chance(0.3);
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.3, 0.02);
}

TEST(RngTest, ForkIsIndependentOfDrawCount) {
  // fork(K) must not depend on how many numbers were drawn beforehand.
  Rng A(99), B(99);
  B.next();
  B.next();
  EXPECT_EQ(A.fork(5).next(), B.fork(5).next());
}

TEST(RngTest, ForkStreamsDiffer) {
  Rng R(123);
  EXPECT_NE(R.fork(0).next(), R.fork(1).next());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng R(17);
  std::vector<int> V{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Orig);
}

TEST(RngTest, SampleDistinctIsDistinctAndBounded) {
  Rng R(23);
  for (int Trial = 0; Trial != 50; ++Trial) {
    const auto S = R.sampleDistinct(5, 16);
    EXPECT_EQ(S.size(), 5u);
    std::set<unsigned> Set(S.begin(), S.end());
    EXPECT_EQ(Set.size(), 5u);
    for (unsigned V : S)
      EXPECT_LT(V, 16u);
  }
}

TEST(RngTest, SampleDistinctFullUniverse) {
  Rng R(29);
  const auto S = R.sampleDistinct(8, 8);
  std::set<unsigned> Set(S.begin(), S.end());
  EXPECT_EQ(Set.size(), 8u);
}

TEST(RngTest, SampleDistinctCoversUniverse) {
  // Over many draws of 1-of-4, every element should appear.
  Rng R(31);
  std::set<unsigned> Seen;
  for (int I = 0; I != 200; ++I)
    Seen.insert(R.sampleDistinct(1, 4)[0]);
  EXPECT_EQ(Seen.size(), 4u);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, MeanBasic) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({5.0}), 5.0);
}

TEST(StatisticsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(StatisticsTest, QuantileEndpoints) {
  const std::vector<double> V{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(V, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(V, 1.0), 40.0);
}

TEST(StatisticsTest, QuantileInterpolates) {
  const std::vector<double> V{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(V, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(V, 0.5), 5.0);
}

TEST(StatisticsDeathTest, QuantileOutsideUnitRangeAbortsInEveryBuild) {
  // A GPUWMM_CHECK, so it fires under NDEBUG too: NaN included, since it
  // fails both comparisons.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<double> V = {1.0, 2.0};
  for (const double Q : {-0.5, 1.5, std::nan("")})
    EXPECT_DEATH((void)quantile(V, Q),
                 "check failed: quantile Q must lie in \\[0, 1\\]")
        << Q;
}

TEST(StatisticsTest, SummarizeFields) {
  const auto S = summarize({2.0, 4.0, 6.0});
  EXPECT_EQ(S.Count, 3u);
  EXPECT_DOUBLE_EQ(S.Min, 2.0);
  EXPECT_DOUBLE_EQ(S.Max, 6.0);
  EXPECT_DOUBLE_EQ(S.Mean, 4.0);
  EXPECT_DOUBLE_EQ(S.Median, 4.0);
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TableTest, AlignsColumns) {
  Table T({"a", "bbbb"});
  T.addRow({"xxx", "y"});
  std::ostringstream OS;
  T.print(OS);
  const std::string Out = OS.str();
  EXPECT_NE(Out.find("a    bbbb"), std::string::npos);
  EXPECT_NE(Out.find("xxx  y"), std::string::npos);
}

TEST(TableTest, PadsShortRows) {
  Table T({"a", "b", "c"});
  T.addRow({"1"});
  std::ostringstream OS;
  T.print(OS);
  EXPECT_EQ(T.numRows(), 1u);
}

TEST(TableTest, CsvQuotesCommas) {
  Table T({"k", "v"});
  T.addRow({"x,y", "z"});
  std::ostringstream OS;
  T.printCsv(OS);
  EXPECT_NE(OS.str().find("\"x,y\",z"), std::string::npos);
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(formatDouble(1.2345, 2), "1.23");
  EXPECT_EQ(formatDouble(1.0, 0), "1");
}

TEST(TableTest, FormatOverheadPercent) {
  EXPECT_EQ(formatOverheadPercent(1.45), "+45%");
  EXPECT_EQ(formatOverheadPercent(1.0), "+0%");
  EXPECT_EQ(formatOverheadPercent(2.74), "+174%");
}

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

TEST(OptionsTest, ParsesKeyValueAndFlags) {
  const char *Argv[] = {"prog", "--runs=50", "--verbose", "positional"};
  Options O(4, const_cast<char **>(Argv));
  EXPECT_EQ(O.getInt("runs", 0, 0, 100), 50);
  EXPECT_TRUE(O.has("verbose"));
  EXPECT_FALSE(O.has("positional"));
  EXPECT_EQ(O.getInt("missing", 7, 0, 100), 7);
}

TEST(OptionsTest, ParsesDoubleAndString) {
  const char *Argv[] = {"prog", "--scale=0.5", "--chip=titan"};
  Options O(3, const_cast<char **>(Argv));
  EXPECT_DOUBLE_EQ(O.getDouble("scale", 1.0, 1e-3, 1e3), 0.5);
  EXPECT_EQ(O.getString("chip", ""), "titan");
  EXPECT_EQ(O.getString("other", "dflt"), "dflt");
}

TEST(OptionsTest, ScaledCountHasFloor) {
  EXPECT_GE(scaledCount(0, 3), 3u);
  EXPECT_GE(scaledCount(100), 1u);
}

TEST(OptionsTest, GetPositiveIntAbsentReturnsDefault) {
  const char *Argv[] = {"prog"};
  Options O(1, const_cast<char **>(Argv));
  EXPECT_EQ(O.getPositiveInt("jobs", 0, 1 << 16), 0);
}

TEST(OptionsTest, GetPositiveIntAcceptsTheMaxBoundaryExactly) {
  // Max is inclusive: a value equal to the bound parses; one past it is
  // rejected (the truncation guard for narrowing casts).
  const char *Argv[] = {"prog", "--jobs=65536"};
  Options O(2, const_cast<char **>(Argv));
  EXPECT_EQ(O.getPositiveInt("jobs", 0, 65536), 65536);
}

TEST(OptionsDeathTest, GetPositiveIntRejectsOnePastMax) {
  const char *Argv[] = {"prog", "--jobs=65537"};
  Options O(2, const_cast<char **>(Argv));
  EXPECT_EXIT((void)O.getPositiveInt("jobs", 0, 65536),
              ::testing::ExitedWithCode(2), "positive integer");
}

TEST(OptionsDeathTest, GetPositiveIntRejectsZeroNegativeAndJunk) {
  for (const char *Bad : {"--jobs=0", "--jobs=-3", "--jobs=abc",
                          "--jobs=", "--jobs=12x"}) {
    const char *Argv[] = {"prog", Bad};
    Options O(2, const_cast<char **>(Argv));
    EXPECT_EXIT((void)O.getPositiveInt("jobs", 0, 1 << 16),
                ::testing::ExitedWithCode(2), "positive integer")
        << Bad;
  }
}

TEST(OptionsTest, GetIntAcceptsItsRangeInclusive) {
  const char *Argv[] = {"prog", "--distance=0", "--seed=-4", "--runs=7"};
  Options O(4, const_cast<char **>(Argv));
  EXPECT_EQ(O.getInt("distance", 9, 0, 64), 0);
  EXPECT_EQ(O.getInt("seed", 0, -4, 4), -4);
  EXPECT_EQ(O.getCount("runs", 1), 7u);
}

TEST(OptionsDeathTest, GetIntRejectsJunkAndOutOfRangeNamingTheOption) {
  for (const char *Bad : {"--runs=abc", "--runs=2x", "--runs=-1", "--runs=",
                          "--runs= 5", "--runs=1e3", "--runs=65"}) {
    const char *Argv[] = {"prog", Bad};
    Options O(2, const_cast<char **>(Argv));
    EXPECT_EXIT((void)O.getInt("runs", 1, 0, 64),
                ::testing::ExitedWithCode(2),
                "error: --runs must be a non-negative integer no larger "
                "than 64")
        << Bad;
  }
}

TEST(OptionsDeathTest, GetCountRejectsWhatWouldWrapWhenNarrowed) {
  for (const char *Bad : {"--runs=-1", "--runs=0", "--runs=4294967297"}) {
    const char *Argv[] = {"prog", Bad};
    Options O(2, const_cast<char **>(Argv));
    EXPECT_EXIT((void)O.getCount("runs", 1), ::testing::ExitedWithCode(2),
                "--runs must be a positive integer")
        << Bad;
  }
}

TEST(OptionsDeathTest, GetDoubleRejectsJunkNanAndOutOfRange) {
  for (const char *Bad : {"--scale=abc", "--scale=0.5x", "--scale=nan",
                          "--scale=0", "--scale=-1", "--scale=inf"}) {
    const char *Argv[] = {"prog", Bad};
    Options O(2, const_cast<char **>(Argv));
    EXPECT_EXIT((void)O.getDouble("scale", 1.0, 1e-3, 1e3),
                ::testing::ExitedWithCode(2), "error: --scale must be a number")
        << Bad;
  }
}

//===----------------------------------------------------------------------===//
// Suggest
//===----------------------------------------------------------------------===//

TEST(SuggestTest, EditDistanceBasics) {
  EXPECT_EQ(editDistance("", ""), 0u);
  EXPECT_EQ(editDistance("", "abc"), 3u);
  EXPECT_EQ(editDistance("abc", ""), 3u);
  EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(editDistance("MP", "mp"), 0u); // Case-insensitive.
}

TEST(SuggestTest, EmptyInputsYieldNothing) {
  EXPECT_TRUE(closeMatches("anything", {}).empty());
  // An empty given string is within distance 2 of short candidates only.
  const auto M = closeMatches("", {"ab", "toolongname"});
  ASSERT_EQ(M.size(), 1u);
  EXPECT_EQ(M[0], "ab");
  EXPECT_EQ(suggestClause("anything", {}), "");
}

TEST(SuggestTest, AllDistantCandidatesYieldNothing) {
  const auto M = closeMatches("zzzzzz", {"MP", "LB", "SB", "IRIW"});
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(suggestClause("zzzzzz", {"MP", "LB", "SB"}), "");
}

TEST(SuggestTest, TiesKeepCandidateOrder) {
  // Both candidates are at distance 1; the candidate list's order is the
  // suggestion order (no hidden re-ranking).
  const auto M = closeMatches("ax", {"ay", "az"});
  ASSERT_EQ(M.size(), 2u);
  EXPECT_EQ(M[0], "ay");
  EXPECT_EQ(M[1], "az");
  // A strictly closer candidate wins alone.
  const auto Best = closeMatches("ax", {"axy", "ax"});
  ASSERT_EQ(Best.size(), 1u);
  EXPECT_EQ(Best[0], "ax");
}

TEST(SuggestTest, ClauseFormatsOneOrTwoMatches) {
  EXPECT_EQ(suggestClause("IRIV", {"IRIW", "WRC"}),
            " (did you mean 'IRIW'?)");
  const std::string Two = suggestClause("ax", {"ay", "az"});
  EXPECT_NE(Two.find("'ay'"), std::string::npos);
  EXPECT_NE(Two.find("'az'"), std::string::npos);
}

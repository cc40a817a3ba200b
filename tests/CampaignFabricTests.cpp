//===- tests/CampaignFabricTests.cpp - Sharded campaign fabric -----------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The sharded, resumable campaign fabric (DESIGN.md Sec. 16): storage
// primitives (CRC framing, atomic publication, exclusive record logs), the
// JSON reader the store round-trips through, the work list and --cells
// grammar, the shard store's manifest/duplicate/torn-tail discipline, and
// the headline property — any partition of the work list across any number
// of workers, completed in any order, with duplicates, torn tails and
// crashes injected, merges back to the monolithic report byte for byte.
//
// The SIGKILL crash-injection path is exercised twice: in-process here via
// fork() + waitpid(), and end-to-end against the CLI binary by
// tests/CampaignResumeSmoke.cmake (cli.campaign_resume).
//
//===----------------------------------------------------------------------===//

#include "harness/Campaign.h"
#include "harness/Merge.h"
#include "harness/ShardStore.h"
#include "harness/WorkList.h"
#include "support/Json.h"
#include "support/ShardIo.h"

#include "gtest/gtest.h"

#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <unistd.h>

using namespace gpuwmm;

namespace {

/// A fresh campaign directory per test, removed on teardown. The path does
/// not exist on entry — ShardStore::open creates it, which is itself part
/// of the contract under test.
struct TempCampaignDir {
  std::filesystem::path Path;

  TempCampaignDir() {
    const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
    Path = std::filesystem::path(::testing::TempDir()) /
           (std::string("gpuwmm-") + Info->test_suite_name() + "-" +
            Info->name());
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  ~TempCampaignDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }
};

/// The fabric test grid: small enough for a property-test loop, but with
/// both cell kinds, a stressed and an unstressed environment, and the
/// oracle on — every field the shard records carry is non-trivial.
harness::CampaignConfig fabricGrid() {
  harness::CampaignConfig Config;
  Config.Chips = {sim::ChipProfile::lookup("titan")};
  Config.Envs = {{stress::StressKind::None, false},
                 {stress::StressKind::Sys, true}};
  Config.Apps = {apps::AppKind::CbeDot, apps::AppKind::SdkRedNf};
  Config.LitmusTests = {litmus::findCatalogProgram("MP")};
  Config.Runs = 6;
  Config.Seed = 3;
  Config.OracleEvery = 1;
  return Config;
}

std::string reportJson(const harness::CampaignReport &Report) {
  std::ostringstream OS;
  harness::writeCampaignJson(Report, OS);
  return OS.str();
}

std::string monolithicJson(const harness::CampaignConfig &Config) {
  return reportJson(harness::runCampaign(Config));
}

/// Runs one fabric worker over \p Selection (all cells when empty).
harness::FabricOutcome runWorker(const harness::CampaignConfig &Config,
                                 const std::string &Dir,
                                 const std::vector<size_t> &Selection = {},
                                 bool Resume = false) {
  harness::FabricOptions Opts;
  Opts.Dir = Dir;
  Opts.Resume = Resume;
  if (!Selection.empty())
    Opts.Selection = &Selection;
  harness::FabricOutcome Out;
  std::string Err;
  EXPECT_TRUE(harness::runCampaignFabric(Config, Opts, nullptr, Out, &Err))
      << Err;
  return Out;
}

std::string mergedJson(const std::string &Dir,
                       harness::MergeStats *StatsOut = nullptr) {
  harness::CampaignReport Report;
  harness::MergeStats Stats;
  std::string Err;
  EXPECT_TRUE(harness::mergeCampaignShards(Dir, Report, Stats, &Err)) << Err;
  if (StatsOut)
    *StatsOut = Stats;
  return reportJson(Report);
}

//===----------------------------------------------------------------------===//
// ShardIo: CRC framing, torn tails, atomic writes, exclusive logs
//===----------------------------------------------------------------------===//

TEST(CampaignShardIoTest, Crc32MatchesStandardCheckValue) {
  // The canonical CRC-32 check value: any polynomial/reflection mistake
  // would change stored frames and break cross-version shard reads.
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(CampaignShardIoTest, FrameRoundTrip) {
  const std::vector<std::string> Payloads = {"{\"a\": 1}", "", "x",
                                             std::string(4096, 'z')};
  std::string Log;
  for (const std::string &P : Payloads)
    Log += frameRecord(P);
  const FramedRecords R = parseFramedRecords(Log);
  EXPECT_FALSE(R.TornTail);
  EXPECT_EQ(R.ValidBytes, Log.size());
  EXPECT_EQ(R.Payloads, Payloads);
}

TEST(CampaignShardIoTest, TornTailIsTruncatedNotFatal) {
  const std::string Whole = frameRecord("{\"ok\": true}");
  // Every strict prefix of an appended record is a torn tail; the records
  // before it must survive untouched.
  for (size_t Cut = 1; Cut != Whole.size(); ++Cut) {
    const std::string Log = Whole + Whole.substr(0, Cut);
    const FramedRecords R = parseFramedRecords(Log);
    EXPECT_TRUE(R.TornTail) << "cut at " << Cut;
    EXPECT_EQ(R.ValidBytes, Whole.size());
    ASSERT_EQ(R.Payloads.size(), 1u);
    EXPECT_EQ(R.Payloads[0], "{\"ok\": true}");
  }
}

TEST(CampaignShardIoTest, CorruptCrcAndGarbageAreTornTails) {
  std::string Bad = frameRecord("payload");
  Bad[0] = Bad[0] == '0' ? '1' : '0'; // Flip a CRC digit.
  EXPECT_TRUE(parseFramedRecords(Bad).TornTail);
  EXPECT_EQ(parseFramedRecords(Bad).ValidBytes, 0u);
  EXPECT_TRUE(parseFramedRecords("not a frame at all\n").TornTail);
  // Payload tampering (same length, wrong bytes) must not pass the CRC.
  std::string Tampered = frameRecord("{\"errors\": 1}");
  Tampered[Tampered.size() - 3] = '9';
  EXPECT_TRUE(parseFramedRecords(Tampered).TornTail);
}

TEST(CampaignShardIoTest, AtomicWritePublishesAndReplaces) {
  TempCampaignDir Dir;
  std::filesystem::create_directories(Dir.Path);
  const std::string Path = (Dir.Path / "manifest.json").string();
  std::string Err;
  ASSERT_TRUE(atomicWriteFile(Path, "first", &Err)) << Err;
  std::string Back;
  ASSERT_TRUE(readFile(Path, Back, &Err)) << Err;
  EXPECT_EQ(Back, "first");
  ASSERT_TRUE(atomicWriteFile(Path, "second", &Err)) << Err;
  ASSERT_TRUE(readFile(Path, Back, &Err)) << Err;
  EXPECT_EQ(Back, "second");
  // No temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp"));
}

TEST(CampaignShardIoTest, RecordLogClaimsExclusively) {
  TempCampaignDir Dir;
  std::filesystem::create_directories(Dir.Path);
  const std::string Path = (Dir.Path / "shard-0000.jsonl").string();
  std::string Err;
  bool Exists = false;
  auto First = RecordLog::createExclusive(Path, &Err, &Exists);
  ASSERT_TRUE(First.has_value()) << Err;
  // A second claimant loses with Exists set — the shard-name allocator's
  // arbitration signal — not a generic error.
  auto Second = RecordLog::createExclusive(Path, &Err, &Exists);
  EXPECT_FALSE(Second.has_value());
  EXPECT_TRUE(Exists);

  ASSERT_TRUE(First->append("one", &Err)) << Err;
  ASSERT_TRUE(First->append("two", &Err)) << Err;
  std::string Text;
  ASSERT_TRUE(readFile(Path, Text, &Err)) << Err;
  const FramedRecords R = parseFramedRecords(Text);
  EXPECT_FALSE(R.TornTail);
  EXPECT_EQ(R.Payloads, (std::vector<std::string>{"one", "two"}));
}

//===----------------------------------------------------------------------===//
// Json: the reader the fabric round-trips its own artifacts through
//===----------------------------------------------------------------------===//

TEST(CampaignJsonTest, ParsesScalarsAndStructure) {
  std::string Err;
  const auto Doc = parseJson(
      " {\"n\": null, \"t\": true, \"f\": false, \"s\": \"a\\\"b\\\\c\\n\", "
      "\"a\": [1, 2.5, -3e2], \"o\": {\"inner\": 0}} ",
      &Err);
  ASSERT_TRUE(Doc.has_value()) << Err;
  ASSERT_TRUE(Doc->isObject());
  EXPECT_EQ(Doc->find("n")->kind(), JsonValue::Kind::Null);
  EXPECT_TRUE(Doc->find("t")->asBool());
  EXPECT_FALSE(Doc->find("f")->asBool());
  EXPECT_EQ(Doc->find("s")->asString(), "a\"b\\c\n");
  ASSERT_TRUE(Doc->find("a")->isArray());
  EXPECT_EQ(Doc->find("a")->items()[1].numberText(), "2.5");
  EXPECT_EQ(Doc->find("o")->find("inner")->asInt64(), 0);
  EXPECT_EQ(Doc->find("missing"), nullptr);
  // Member order is source order (manifests are byte-compared).
  EXPECT_EQ(Doc->members()[0].first, "n");
  EXPECT_EQ(Doc->members()[5].first, "o");
}

TEST(CampaignJsonTest, Uint64SeedsSurviveUnmangled) {
  // Seeds are full-width uint64s; a lossy trip through double would
  // corrupt them and break the merge's seed-scheme check.
  std::string Err;
  const auto Doc = parseJson("{\"seed\": 18446744073709551615}", &Err);
  ASSERT_TRUE(Doc.has_value()) << Err;
  EXPECT_EQ(Doc->find("seed")->asUInt64(), ~0ull);
  EXPECT_EQ(Doc->find("seed")->numberText(), "18446744073709551615");
}

TEST(CampaignJsonTest, RejectsMalformedInput) {
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\": 1} trailing", "+1",
        "\"unterminated", "{\"a\" 1}", "nul", "{\"a\": 1 \"b\": 2}"}) {
    std::string Err;
    EXPECT_FALSE(parseJson(Bad, &Err).has_value()) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
  // Depth-bomb: the parser must bail, not overflow the stack.
  std::string Deep(1000, '[');
  Deep += std::string(1000, ']');
  std::string Err;
  EXPECT_FALSE(parseJson(Deep, &Err).has_value());
}

TEST(CampaignJsonTest, EscapeRoundTripsThroughParser) {
  const std::string Nasty = "a\"b\\c\n\t\x01z";
  std::string Err;
  const auto Doc = parseJson("\"" + jsonEscape(Nasty) + "\"", &Err);
  ASSERT_TRUE(Doc.has_value()) << Err;
  EXPECT_EQ(Doc->asString(), Nasty);
}

//===----------------------------------------------------------------------===//
// WorkList: report-order layout, keys, canonical seeds, --cells grammar
//===----------------------------------------------------------------------===//

TEST(CampaignWorkListTest, LayoutMatchesReportOrder) {
  const auto Config = fabricGrid();
  const auto Work = harness::buildWorkList(Config);
  // App cells chip-major over the selection, then litmus cells — the
  // exact order writeCampaignJson renders, which is what lets the merge
  // fill cells by work-list position.
  ASSERT_EQ(Work.size(), 5u);
  EXPECT_EQ(harness::workItemKey(Config, Work[0]), "app/titan/no-str-/cbe-dot");
  EXPECT_EQ(harness::workItemKey(Config, Work[1]),
            "app/titan/no-str-/sdk-red-nf");
  EXPECT_EQ(harness::workItemKey(Config, Work[2]),
            "app/titan/sys-str+/cbe-dot");
  EXPECT_EQ(harness::workItemKey(Config, Work[3]),
            "app/titan/sys-str+/sdk-red-nf");
  EXPECT_EQ(harness::workItemKey(Config, Work[4]), "litmus/titan/MP");
}

TEST(CampaignWorkListTest, SeedsAreCanonical) {
  const auto Config = fabricGrid();
  const auto Work = harness::buildWorkList(Config);
  for (const auto &Item : Work) {
    if (Item.ItemKind == harness::CampaignWorkItem::Kind::Litmus)
      EXPECT_EQ(harness::workItemSeed(Config, Item),
                harness::campaignLitmusSeed(
                    Config.Seed, *Config.Chips[Item.ChipIdx],
                    *Config.LitmusTests[Item.TestIdx]));
    else
      EXPECT_EQ(harness::workItemSeed(Config, Item),
                harness::campaignCellSeed(
                    Config.Seed, *Config.Chips[Item.ChipIdx],
                    Config.Envs[Item.EnvIdx], Config.Apps[Item.AppIdx]));
  }
}

TEST(CampaignCellSpecTest, ParsesIndicesAndRanges) {
  std::string Err;
  EXPECT_EQ(harness::parseCellSelection("0", 5, Err),
            (std::vector<size_t>{0}));
  EXPECT_EQ(harness::parseCellSelection("4,0,2", 5, Err),
            (std::vector<size_t>{0, 2, 4}));
  EXPECT_EQ(harness::parseCellSelection("1..3", 5, Err),
            (std::vector<size_t>{1, 2, 3}));
  EXPECT_EQ(harness::parseCellSelection("2..2", 5, Err),
            (std::vector<size_t>{2}));
  // Overlaps and duplicates collapse: the result is a sorted set.
  EXPECT_EQ(harness::parseCellSelection("0..2,1..3,3", 5, Err),
            (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(harness::parseCellSelection("0..4", 5, Err),
            (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(CampaignCellSpecTest, RejectsMalformedSpecs) {
  // The getPositiveInt convention: every malformed item is rejected with
  // one clear message naming the offending token; callers exit 2.
  for (const char *Bad : {"", ",", "a", "-1", "1..", "..3", "..", "5..2",
                          "1..a", "0,,2", "5", "0..5", "1e2", " 1", "1 "}) {
    std::string Err;
    EXPECT_FALSE(harness::parseCellSelection(Bad, 5, Err).has_value())
        << "'" << Bad << "' should be rejected";
    EXPECT_NE(Err.find("--cells expects"), std::string::npos) << Err;
  }
  std::string Err;
  EXPECT_FALSE(
      harness::parseCellSelection("18446744073709551616", 5, Err).has_value());
}

//===----------------------------------------------------------------------===//
// ShardStore: record round-trip, manifest discipline, shard claiming
//===----------------------------------------------------------------------===//

harness::ShardRecord sampleAppRecord() {
  harness::ShardRecord R;
  R.Chip = "titan";
  R.Env = "sys-str+";
  R.App = "cbe-dot";
  R.Seed = 0xdeadbeefcafef00dull;
  R.Runs = 6;
  R.Errors = 2;
  R.Timeouts = 1;
  R.OracleChecked = 6;
  return R;
}

TEST(CampaignShardStoreTest, RecordJsonRoundTrips) {
  const harness::ShardRecord App = sampleAppRecord();
  std::string Err;
  auto Back = harness::ShardRecord::fromJson(App.toJson(), &Err);
  ASSERT_TRUE(Back.has_value()) << Err;
  EXPECT_EQ(*Back, App);
  EXPECT_EQ(Back->key(), "app/titan/sys-str+/cbe-dot");

  harness::ShardRecord Lit;
  Lit.IsLitmus = true;
  Lit.Chip = "k20";
  Lit.Test = "MP";
  Lit.Seed = ~0ull;
  Lit.Runs = 100;
  Lit.Weak = 17;
  Back = harness::ShardRecord::fromJson(Lit.toJson(), &Err);
  ASSERT_TRUE(Back.has_value()) << Err;
  EXPECT_EQ(*Back, Lit);
  EXPECT_EQ(Back->key(), "litmus/k20/MP");
}

TEST(CampaignShardStoreTest, RecordParserRejectsDamage) {
  for (const char *Bad :
       {"[]", "{\"kind\": \"app\"}", "{\"kind\": \"nope\", \"chip\": \"t\"}",
        "{\"kind\": \"litmus\", \"chip\": \"k20\", \"test\": \"MP\", "
        "\"seed\": 1, \"runs\": -1, \"weak\": 0, \"oracle_checked\": 0, "
        "\"oracle_violations\": 0}",
        "not json"}) {
    std::string Err;
    EXPECT_FALSE(harness::ShardRecord::fromJson(Bad, &Err).has_value())
        << Bad;
    EXPECT_FALSE(Err.empty());
  }
}

TEST(CampaignShardStoreTest, ManifestRoundTripsThroughParser) {
  const auto Config = fabricGrid();
  const std::string Manifest = harness::campaignManifestJson(Config);
  harness::CampaignConfig Back;
  std::string Err;
  ASSERT_TRUE(harness::parseCampaignManifest(Manifest, Back, &Err)) << Err;
  // Byte-stable round trip: re-rendering the parsed config reproduces the
  // manifest exactly, which is what makes "same campaign" a byte compare.
  EXPECT_EQ(harness::campaignManifestJson(Back), Manifest);
  EXPECT_EQ(Back.Runs, Config.Runs);
  EXPECT_EQ(Back.Seed, Config.Seed);
  EXPECT_EQ(Back.OracleEvery, Config.OracleEvery);
  ASSERT_EQ(Back.LitmusTests.size(), 1u);
  EXPECT_EQ(Back.LitmusTests[0], Config.LitmusTests[0]);
}

TEST(CampaignShardStoreTest, ManifestCountsMustBeUnsignedIntegers) {
  // A damaged count must fail as the manifest's fault, not parse as 0 or
  // 2^32 - 1 and make every record "contradict the manifest".
  const std::string Manifest = harness::campaignManifestJson(fabricGrid());
  const std::string Runs = "\"runs\": 6";
  ASSERT_NE(Manifest.find(Runs), std::string::npos);
  for (const char *Bad : {"\"runs\": \"six\"", "\"runs\": -1",
                          "\"runs\": 6.5", "\"runs\": 4294967296"}) {
    std::string Text = Manifest;
    Text.replace(Text.find(Runs), Runs.size(), Bad);
    harness::CampaignConfig Back;
    std::string Err;
    EXPECT_FALSE(harness::parseCampaignManifest(Text, Back, &Err)) << Bad;
    EXPECT_NE(Err.find("'runs'"), std::string::npos) << Bad << ": " << Err;
  }
}

TEST(CampaignShardStoreTest, OpenRefusesForeignManifest) {
  TempCampaignDir Dir;
  auto Config = fabricGrid();
  std::string Err;
  ASSERT_TRUE(harness::ShardStore::open(Dir.str(), Config, &Err).has_value())
      << Err;
  // Any config drift — here the seed — must refuse to join the store.
  Config.Seed = 4;
  EXPECT_FALSE(
      harness::ShardStore::open(Dir.str(), Config, &Err).has_value());
  EXPECT_NE(Err.find("describes a different campaign"), std::string::npos)
      << Err;
}

TEST(CampaignShardStoreTest, WorkersClaimDistinctShards) {
  TempCampaignDir Dir;
  const auto Config = fabricGrid();
  std::string Err;
  auto A = harness::ShardStore::open(Dir.str(), Config, &Err);
  auto B = harness::ShardStore::open(Dir.str(), Config, &Err);
  ASSERT_TRUE(A.has_value() && B.has_value()) << Err;
  ASSERT_TRUE(A->append(sampleAppRecord(), &Err)) << Err;
  ASSERT_TRUE(B->append(sampleAppRecord(), &Err)) << Err;
  EXPECT_EQ(A->shardPath(), Dir.str() + "/shard-0000.jsonl");
  EXPECT_EQ(B->shardPath(), Dir.str() + "/shard-0001.jsonl");
}

TEST(CampaignShardStoreTest, ConflictingDuplicateIsCorruption) {
  TempCampaignDir Dir;
  const auto Config = fabricGrid();
  std::string Err;
  auto A = harness::ShardStore::open(Dir.str(), Config, &Err);
  auto B = harness::ShardStore::open(Dir.str(), Config, &Err);
  ASSERT_TRUE(A.has_value() && B.has_value()) << Err;
  harness::ShardRecord R = sampleAppRecord();
  ASSERT_TRUE(A->append(R, &Err)) << Err;
  R.Errors += 1; // Same cell identity, different counts.
  ASSERT_TRUE(B->append(R, &Err)) << Err;
  harness::LoadedShards Loaded;
  EXPECT_FALSE(harness::loadCampaignShards(Dir.str(), Loaded, &Err));
  EXPECT_NE(Err.find("conflicting duplicate record"), std::string::npos)
      << Err;
}

//===----------------------------------------------------------------------===//
// Merge: random partitions, shuffled arrival, dupes, torn tails
//===----------------------------------------------------------------------===//

TEST(CampaignMergeTest, RandomPartitionsMergeByteIdentically) {
  // The headline property: partition the work list across 1..4 workers
  // uniformly at random, shuffle each worker's completion order and the
  // workers' arrival order, and the merged report must equal the
  // monolithic one byte for byte — every trial, at a pinned seed.
  const auto Config = fabricGrid();
  const std::string Mono = monolithicJson(Config);
  const size_t NumCells = harness::buildWorkList(Config).size();
  std::mt19937 Rand(20260808);
  for (int Trial = 0; Trial != 6; ++Trial) {
    TempCampaignDir Dir;
    const unsigned Workers = 1 + Rand() % 4;
    std::vector<std::vector<size_t>> Stripes(Workers);
    for (size_t Cell = 0; Cell != NumCells; ++Cell)
      Stripes[Rand() % Workers].push_back(Cell);
    for (auto &Stripe : Stripes)
      std::shuffle(Stripe.begin(), Stripe.end(), Rand);
    std::shuffle(Stripes.begin(), Stripes.end(), Rand);
    unsigned Completed = 0;
    for (const auto &Stripe : Stripes) {
      if (Stripe.empty())
        continue;
      Completed += runWorker(Config, Dir.str(), Stripe).Completed;
    }
    EXPECT_EQ(Completed, NumCells);
    harness::MergeStats Stats;
    EXPECT_EQ(mergedJson(Dir.str(), &Stats), Mono) << "trial " << Trial;
    EXPECT_EQ(Stats.CellsMerged, NumCells);
    EXPECT_EQ(Stats.Duplicates, 0u);
    EXPECT_EQ(Stats.TornShards, 0u);
  }
}

TEST(CampaignMergeTest, OverlappingStripesDedupeByIdentity) {
  // Two workers racing overlapping stripes produce byte-equal duplicate
  // records; the merge dedupes them and the report is untouched.
  const auto Config = fabricGrid();
  TempCampaignDir Dir;
  runWorker(Config, Dir.str(), {0, 1, 2, 4});
  runWorker(Config, Dir.str(), {2, 3, 4});
  harness::MergeStats Stats;
  EXPECT_EQ(mergedJson(Dir.str(), &Stats), monolithicJson(Config));
  EXPECT_EQ(Stats.Duplicates, 2u);
  EXPECT_EQ(Stats.ShardFiles, 2u);
}

TEST(CampaignMergeTest, TornTailIsTruncatedWithWarning) {
  const auto Config = fabricGrid();
  TempCampaignDir Dir;
  const auto Out = runWorker(Config, Dir.str());
  // Simulate a crash mid-append of a straggler: garbage after the last
  // durable record. The merge must warn, truncate, and still match.
  {
    std::ofstream OS(Out.ShardPath, std::ios::app | std::ios::binary);
    OS << "deadbeef:{\"kind\": \"app\", \"chip\": \"tit";
  }
  harness::MergeStats Stats;
  EXPECT_EQ(mergedJson(Dir.str(), &Stats), monolithicJson(Config));
  EXPECT_EQ(Stats.TornShards, 1u);
  ASSERT_EQ(Stats.Warnings.size(), 1u);
  EXPECT_NE(Stats.Warnings[0].find("torn tail"), std::string::npos);
}

TEST(CampaignMergeTest, IncompleteStoreNamesMissingCellsAndFails) {
  const auto Config = fabricGrid();
  TempCampaignDir Dir;
  runWorker(Config, Dir.str(), {0, 3});
  harness::CampaignReport Report;
  harness::MergeStats Stats;
  std::string Err;
  EXPECT_FALSE(harness::mergeCampaignShards(Dir.str(), Report, Stats, &Err));
  // "Resume me", not "malformed input": the caller maps this to exit 1.
  EXPECT_EQ(Stats.MissingCells.size(), 3u);
  EXPECT_NE(Err.find("--resume"), std::string::npos) << Err;
}

TEST(CampaignMergeTest, RecordContradictingManifestIsRejected) {
  // A record whose derived seed disagrees with the manifest's scheme is
  // from another campaign (or another seed-derivation version) — merging
  // its counts would be silent corruption.
  const auto Config = fabricGrid();
  TempCampaignDir Dir;
  runWorker(Config, Dir.str(), {1, 2, 3, 4});
  const auto Work = harness::buildWorkList(Config);
  harness::ShardRecord Fake;
  Fake.Chip = "titan";
  Fake.Env = "no-str-";
  Fake.App = "cbe-dot"; // Key of work item 0, but a wrong seed.
  Fake.Seed = harness::workItemSeed(Config, Work[0]) + 1;
  Fake.Runs = Config.Runs;
  std::string Err;
  auto Store = harness::ShardStore::open(Dir.str(), Config, &Err);
  ASSERT_TRUE(Store.has_value()) << Err;
  ASSERT_TRUE(Store->append(Fake, &Err)) << Err;
  harness::CampaignReport Report;
  harness::MergeStats Stats;
  EXPECT_FALSE(harness::mergeCampaignShards(Dir.str(), Report, Stats, &Err));
  EXPECT_NE(Err.find("contradicts the manifest"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Resume and crash injection
//===----------------------------------------------------------------------===//

TEST(CampaignResumeTest, ResumeSkipsDurableCellsOnly) {
  const auto Config = fabricGrid();
  TempCampaignDir Dir;
  runWorker(Config, Dir.str(), {0, 2});
  const auto Out = runWorker(Config, Dir.str(), {}, /*Resume=*/true);
  EXPECT_EQ(Out.Skipped, 2u);
  EXPECT_EQ(Out.Completed, 3u);
  EXPECT_EQ(mergedJson(Dir.str()), monolithicJson(Config));
  // Resuming a complete store is a no-op, and merging stays idempotent.
  const auto Again = runWorker(Config, Dir.str(), {}, /*Resume=*/true);
  EXPECT_EQ(Again.Skipped, 5u);
  EXPECT_EQ(Again.Completed, 0u);
  EXPECT_EQ(mergedJson(Dir.str()), monolithicJson(Config));
}

TEST(CampaignResumeTest, ResumeRerunsTornCell) {
  const auto Config = fabricGrid();
  TempCampaignDir Dir;
  const auto Out = runWorker(Config, Dir.str());
  // Tear the final record: truncate the shard mid-frame, as a crash
  // between write() and fsync() could leave it.
  std::string Text, Err;
  ASSERT_TRUE(readFile(Out.ShardPath, Text, &Err)) << Err;
  const FramedRecords Before = parseFramedRecords(Text);
  ASSERT_EQ(Before.Payloads.size(), 5u);
  std::filesystem::resize_file(Out.ShardPath, Text.size() - 10);
  const auto Resumed = runWorker(Config, Dir.str(), {}, /*Resume=*/true);
  EXPECT_EQ(Resumed.Skipped, 4u);
  EXPECT_EQ(Resumed.Completed, 1u);
  ASSERT_EQ(Resumed.Warnings.size(), 1u);
  EXPECT_NE(Resumed.Warnings[0].find("torn tail"), std::string::npos);
  EXPECT_EQ(mergedJson(Dir.str()), monolithicJson(Config));
}

TEST(CampaignResumeTest, SigkillAfterNthAppendResumesByteIdentically) {
  // The crash-injection hook itself, in-process: a forked child SIGKILLs
  // itself right after its 2nd durable append; the parent verifies the
  // kill, resumes, and the merged report matches the monolithic run.
  // (The CLI spelling of the same scenario — GPUWMM_CAMPAIGN_CRASH_AFTER
  // against the gpuwmm binary — is cli.campaign_resume.)
  const auto Config = fabricGrid();
  TempCampaignDir Dir;
  const pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    harness::FabricOptions Opts;
    Opts.Dir = Dir.str();
    Opts.CrashAfterAppends = 2;
    harness::FabricOutcome Out;
    harness::runCampaignFabric(Config, Opts, nullptr, Out, nullptr);
    _exit(0); // Unreachable when the hook fires.
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFSIGNALED(Status));
  EXPECT_EQ(WTERMSIG(Status), SIGKILL);

  // The incomplete store must refuse to merge...
  harness::CampaignReport Report;
  harness::MergeStats Stats;
  std::string Err;
  EXPECT_FALSE(harness::mergeCampaignShards(Dir.str(), Report, Stats, &Err));
  EXPECT_EQ(Stats.MissingCells.size(), 3u);
  // ...and the two pre-crash records must already be durable and clean.
  harness::LoadedShards Loaded;
  ASSERT_TRUE(harness::loadCampaignShards(Dir.str(), Loaded, &Err)) << Err;
  EXPECT_EQ(Loaded.Records.size(), 2u);
  EXPECT_EQ(Loaded.TornShards, 0u);

  const auto Resumed = runWorker(Config, Dir.str(), {}, /*Resume=*/true);
  EXPECT_EQ(Resumed.Skipped, 2u);
  EXPECT_EQ(Resumed.Completed, 3u);
  EXPECT_EQ(mergedJson(Dir.str()), monolithicJson(Config));
}

TEST(CampaignResumeTest, FabricMatchesMonolithWithPoolAndWithout) {
  // The per-cell runners under a pool must equal the monolithic flattened
  // loop — the determinism contract (DESIGN.md Sec. 11) extended to the
  // fabric path.
  const auto Config = fabricGrid();
  const std::string Mono = monolithicJson(Config);
  {
    TempCampaignDir Dir;
    ThreadPool Pool(8);
    harness::FabricOptions Opts;
    Opts.Dir = Dir.str();
    harness::FabricOutcome Out;
    std::string Err;
    ASSERT_TRUE(harness::runCampaignFabric(Config, Opts, &Pool, Out, &Err))
        << Err;
    EXPECT_EQ(mergedJson(Dir.str()), Mono);
  }
  {
    TempCampaignDir Dir;
    runWorker(Config, Dir.str());
    EXPECT_EQ(mergedJson(Dir.str()), Mono);
  }
}

TEST(CampaignResumeTest, DuplicateSelectionEntriesAreRefused) {
  // A grid whose selections repeat an entry (e.g. --chips=titan,titan)
  // would collapse distinct cells onto one identity key; the fabric must
  // refuse it up front rather than merge garbage later.
  auto Config = fabricGrid();
  Config.Chips.push_back(Config.Chips[0]);
  TempCampaignDir Dir;
  harness::FabricOptions Opts;
  Opts.Dir = Dir.str();
  harness::FabricOutcome Out;
  std::string Err;
  EXPECT_FALSE(harness::runCampaignFabric(Config, Opts, nullptr, Out, &Err));
  EXPECT_FALSE(Err.empty());
}

} // namespace

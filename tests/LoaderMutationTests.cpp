//===- tests/LoaderMutationTests.cpp - Damaged record directories --------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The loaders of both durable record directories (DESIGN.md Secs. 16 and
// 18) against damaged input: seeded single mutations (byte flips and
// overwrites, deletions, insertions, truncations) of a valid campaign
// store's shard log and a valid hunt corpus's record log. Even mutants
// damage the log bytes, which the CRC framing mostly turns into torn
// tails; odd mutants damage one record's payload and re-frame it with a
// valid CRC, so the record parsers (ShardRecord::fromJson, the corpus
// entry parser and the embedded .litmus parser) see them. Every mutant
// must load (a torn tail only warns) or fail with an error that names the
// damaged log; none may crash or hang.
//
//===----------------------------------------------------------------------===//

#include "harness/Campaign.h"
#include "harness/ShardStore.h"
#include "hunt/Corpus.h"
#include "hunt/Hunt.h"
#include "support/Rng.h"
#include "support/ShardIo.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <string_view>

using namespace gpuwmm;

namespace {

/// Mutants per store.
constexpr unsigned NumMutants = 1000;

/// A fresh directory per test and tag, removed on teardown.
struct TempDir {
  std::filesystem::path Path;

  explicit TempDir(const char *Tag) {
    const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
    Path = std::filesystem::path(::testing::TempDir()) /
           (std::string("gpuwmm-") + Info->test_suite_name() + "-" +
            Info->name() + "-" + Tag);
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }
};

void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS << Bytes;
  ASSERT_TRUE(OS.good()) << Path;
}

/// Applies one seeded mutation to \p Bytes.
void mutate(std::string &Bytes, Rng &R) {
  // Half the written bytes are ones the JSON and .litmus parsers treat
  // specially, so mutants reach their branches rather than only their
  // "unexpected character" exits.
  static constexpr std::string_view Special =
      "{}[]\":,\\0123456789-+.eE \n\ttrufalsn";
  const auto Byte = [&R] {
    return R.chance(0.5) ? Special[R.below(Special.size())]
                         : static_cast<char>(R.below(256));
  };
  if (Bytes.empty()) {
    Bytes += Byte();
    return;
  }
  const size_t At = R.below(Bytes.size());
  switch (R.below(5)) {
  case 0: // Bit flip.
    Bytes[At] = static_cast<char>(Bytes[At] ^ (1 << R.below(8)));
    break;
  case 1: // Overwrite.
    Bytes[At] = Byte();
    break;
  case 2: // Deletion of 1-8 bytes.
    Bytes.erase(At, 1 + R.below(8));
    break;
  case 3: { // Insertion of 1-8 bytes.
    std::string Inserted;
    for (uint64_t N = 1 + R.below(8); N; --N)
      Inserted += Byte();
    Bytes.insert(At, Inserted);
    break;
  }
  default: // Truncation.
    Bytes.resize(At);
    break;
  }
}

/// Mutant \p I of record log \p Log: even mutants damage the log bytes,
/// odd ones one payload, re-framed with a valid CRC.
std::string mutant(const std::string &Log, unsigned I) {
  Rng R(Rng::deriveStream(0x10ad, I));
  if (I % 2 == 0) {
    std::string Bytes = Log;
    mutate(Bytes, R);
    return Bytes;
  }
  const FramedRecords Framed = parseFramedRecords(Log);
  const size_t Victim = R.below(Framed.Payloads.size());
  std::string Bytes;
  for (size_t K = 0; K != Framed.Payloads.size(); ++K) {
    std::string Payload = Framed.Payloads[K];
    if (K == Victim)
      mutate(Payload, R);
    Bytes += frameRecord(Payload);
  }
  return Bytes;
}

/// How the mutants of one store fared.
struct Tally {
  unsigned Loaded = 0;   ///< Loaded with every record.
  unsigned Torn = 0;     ///< Loaded with a torn-tail warning.
  unsigned Rejected = 0; ///< Failed with an error naming the log.
  /// Re-framed mutants a record parser rejected.
  unsigned ParserRejected = 0;

  void expectBothOutcomes() const {
    // The battery reaches the record parsers, and not every mutation
    // (a changed digit in a count, say) is one they reject.
    EXPECT_GT(ParserRejected, NumMutants / 10);
    EXPECT_GT(Loaded, 0u);
    EXPECT_GT(Torn, NumMutants / 10);
    EXPECT_EQ(Loaded + Torn + Rejected, NumMutants);
  }
};

TEST(LoaderMutationTest, CampaignShardLoaderSurvivesMutants) {
  TempDir Valid("valid"), Damaged("damaged");
  // A valid store: both cell kinds, a stressed and an unstressed
  // environment, the oracle on, so every record field is non-trivial.
  harness::CampaignConfig Config;
  Config.Chips = {sim::ChipProfile::lookup("titan")};
  Config.Envs = {{stress::StressKind::None, false},
                 {stress::StressKind::Sys, true}};
  Config.Apps = {apps::AppKind::CbeDot, apps::AppKind::SdkRedNf};
  Config.LitmusTests = {litmus::findCatalogProgram("MP")};
  Config.Runs = 4;
  Config.Seed = 3;
  Config.OracleEvery = 1;
  harness::FabricOptions Opts;
  Opts.Dir = Valid.str();
  harness::FabricOutcome Out;
  std::string Log, Err;
  ASSERT_TRUE(harness::runCampaignFabric(Config, Opts, nullptr, Out, &Err))
      << Err;
  ASSERT_TRUE(readFile(Out.ShardPath, Log, &Err)) << Err;
  ASSERT_EQ(parseFramedRecords(Log).Payloads.size(), 5u);

  std::filesystem::create_directory(Damaged.Path);
  const std::string Path = (Damaged.Path / "shard-0000.jsonl").string();
  Tally T;
  for (unsigned I = 0; I != NumMutants; ++I) {
    const std::string Bytes = mutant(Log, I);
    writeBytes(Path, Bytes);
    harness::LoadedShards Loaded;
    Err.clear();
    if (harness::loadCampaignShards(Damaged.str(), Loaded, &Err)) {
      ++(Loaded.TornShards ? T.Torn : T.Loaded);
      continue;
    }
    ++T.Rejected;
    T.ParserRejected += I % 2 && !parseFramedRecords(Bytes).TornTail;
    EXPECT_NE(Err.find(Path), std::string::npos)
        << "mutant " << I << ": " << Err;
  }
  T.expectBothOutcomes();
}

TEST(LoaderMutationTest, CorpusLoaderSurvivesMutants) {
  TempDir Valid("valid"), Damaged("damaged");
  // A valid corpus: the bounded hunt HuntPipelineTest pins, five entries
  // and two round markers.
  hunt::HuntConfig Cfg;
  Cfg.Chip = sim::ChipProfile::lookup("titan");
  Cfg.Rounds = 2;
  Cfg.Fuzz.Programs = 12;
  Cfg.Fuzz.RunsPerProgram = 30;
  Cfg.Distance = 64;
  Cfg.ShrinkRuns = 120;
  Cfg.HardenRuns = 16;
  Cfg.StableRuns = 150;
  Cfg.VerifyRuns = 80;
  Cfg.Seed = 9;
  Cfg.CorpusDir = Valid.str();
  hunt::HuntReport Report;
  std::string Log, Manifest, Err;
  ASSERT_TRUE(hunt::runHunt(Cfg, nullptr, Report, &Err)) << Err;
  ASSERT_TRUE(readFile(Valid.str() + "/corpus-0000.jsonl", Log, &Err))
      << Err;
  ASSERT_TRUE(readFile(Valid.str() + "/manifest.json", Manifest, &Err))
      << Err;
  ASSERT_EQ(parseFramedRecords(Log).Payloads.size(), 7u);

  std::filesystem::create_directory(Damaged.Path);
  writeBytes(Damaged.str() + "/manifest.json", Manifest);
  const std::string Path = (Damaged.Path / "corpus-0000.jsonl").string();
  hunt::Corpus::OpenOptions Opts;
  Opts.Dir = Damaged.str();
  Opts.Resume = true;
  Tally T;
  for (unsigned I = 0; I != NumMutants; ++I) {
    const std::string Bytes = mutant(Log, I);
    writeBytes(Path, Bytes);
    hunt::Corpus C;
    Err.clear();
    if (hunt::Corpus::open(Opts, Cfg.manifest(), C, &Err)) {
      ++(C.warnings().empty() ? T.Loaded : T.Torn);
      continue;
    }
    ++T.Rejected;
    T.ParserRejected += I % 2 && !parseFramedRecords(Bytes).TornTail;
    EXPECT_NE(Err.find(Path), std::string::npos)
        << "mutant " << I << ": " << Err;
  }
  T.expectBothOutcomes();
}

} // namespace

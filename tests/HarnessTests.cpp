//===- tests/HarnessTests.cpp - experiment harness tests ------------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Tests the Tab. 5 environment runner (effectiveness accounting) and the
// Sec. 6 cost benchmark (runtime/energy ordering of the three fencing
// strategies), plus the chip registry.
//
//===----------------------------------------------------------------------===//

#include "EngineModeGuard.h"

#include "harness/CostBenchmark.h"
#include "harness/EnvironmentRunner.h"

#include "gtest/gtest.h"

using namespace gpuwmm;
using namespace gpuwmm::harness;

namespace {

const sim::ChipProfile &titan() {
  return *sim::ChipProfile::lookup("titan");
}

} // namespace

//===----------------------------------------------------------------------===//
// Chip registry (paper Tab. 1)
//===----------------------------------------------------------------------===//

TEST(ChipRegistryTest, SevenChips) {
  size_t Count = 0;
  sim::ChipProfile::all(Count);
  EXPECT_EQ(Count, 7u);
}

TEST(ChipRegistryTest, LookupByShortName) {
  for (const char *Name :
       {"980", "k5200", "titan", "k20", "770", "c2075", "c2050"}) {
    const auto *Chip = sim::ChipProfile::lookup(Name);
    ASSERT_NE(Chip, nullptr) << Name;
    EXPECT_STREQ(Chip->ShortName, Name);
  }
  EXPECT_EQ(sim::ChipProfile::lookup("gtx9000"), nullptr);
}

TEST(ChipRegistryTest, Table1Facts) {
  // Architectures and patch sizes as derived in the paper (Tabs. 1, 2).
  EXPECT_EQ(sim::ChipProfile::lookup("980")->Arch, sim::GpuArch::Maxwell);
  EXPECT_EQ(sim::ChipProfile::lookup("titan")->Arch, sim::GpuArch::Kepler);
  EXPECT_EQ(sim::ChipProfile::lookup("c2050")->Arch, sim::GpuArch::Fermi);
  EXPECT_EQ(sim::ChipProfile::lookup("titan")->PatchSizeWords, 32u);
  EXPECT_EQ(sim::ChipProfile::lookup("k20")->PatchSizeWords, 32u);
  EXPECT_EQ(sim::ChipProfile::lookup("c2075")->PatchSizeWords, 64u);
  EXPECT_EQ(sim::ChipProfile::lookup("980")->PatchSizeWords, 64u);
  // NVML power queries: K5200, Titan, K20 and C2075 only (Sec. 6).
  EXPECT_TRUE(sim::ChipProfile::lookup("k5200")->SupportsPowerQuery);
  EXPECT_TRUE(sim::ChipProfile::lookup("titan")->SupportsPowerQuery);
  EXPECT_TRUE(sim::ChipProfile::lookup("k20")->SupportsPowerQuery);
  EXPECT_TRUE(sim::ChipProfile::lookup("c2075")->SupportsPowerQuery);
  EXPECT_FALSE(sim::ChipProfile::lookup("980")->SupportsPowerQuery);
  EXPECT_FALSE(sim::ChipProfile::lookup("770")->SupportsPowerQuery);
  EXPECT_FALSE(sim::ChipProfile::lookup("c2050")->SupportsPowerQuery);
}

TEST(ChipRegistryTest, BankMapping) {
  const auto &Chip = *sim::ChipProfile::lookup("titan");
  EXPECT_EQ(Chip.bankOf(0), 0u);
  EXPECT_EQ(Chip.bankOf(31), 0u);
  EXPECT_EQ(Chip.bankOf(32), 1u);
  EXPECT_EQ(Chip.bankOf(32 * 8), 0u) << "banks wrap modulo NumBanks";
  EXPECT_EQ(archName(sim::GpuArch::Kepler), std::string("Kepler"));
}

//===----------------------------------------------------------------------===//
// Environment runner (Tab. 5 accounting)
//===----------------------------------------------------------------------===//

TEST(CellResultTest, EffectivenessThresholdIsStrict) {
  CellResult C;
  C.Runs = 100;
  C.Errors = 5;
  EXPECT_TRUE(C.observed());
  EXPECT_FALSE(C.effective()) << "exactly 5% is not 'more than 5%'";
  C.Errors = 6;
  EXPECT_TRUE(C.effective());
  C.Errors = 0;
  EXPECT_FALSE(C.observed());
  EXPECT_DOUBLE_EQ(C.errorRate(), 0.0);
}

TEST(EnvironmentRunnerTest, FencedSdkRedShowsNoErrors) {
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  const auto Cell =
      runCell(apps::AppKind::SdkRed, titan(),
              {stress::StressKind::Sys, true}, Tuned, 40, 11);
  EXPECT_EQ(Cell.Errors, 0u);
  EXPECT_EQ(Cell.Runs, 40u);
}

TEST(EnvironmentRunnerTest, SysStressIsEffectiveOnCbeDot) {
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  const auto Cell =
      runCell(apps::AppKind::CbeDot, titan(),
              {stress::StressKind::Sys, true}, Tuned, 60, 12);
  EXPECT_TRUE(Cell.effective())
      << "errors in " << Cell.Errors << "/" << Cell.Runs;
}

TEST(EnvironmentRunnerTest, SummaryCountsAreConsistent) {
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  const auto S = runEnvironmentSummary(
      titan(), {stress::StressKind::Sys, true}, Tuned, 25, 13);
  EXPECT_LE(S.AppsEffective, S.AppsWithErrors);
  EXPECT_LE(S.AppsWithErrors, 10u);
  EXPECT_GE(S.AppsWithErrors, 6u)
      << "sys-str+ must expose most applications on Titan";
}

TEST(EnvironmentRunnerTest, NoStressSummaryIsNearZero) {
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  const auto S = runEnvironmentSummary(
      titan(), {stress::StressKind::None, false}, Tuned, 25, 14);
  EXPECT_LE(S.AppsWithErrors, 2u);
}

//===----------------------------------------------------------------------===//
// Cost benchmark (Sec. 6)
//===----------------------------------------------------------------------===//

TEST(CostBenchmarkTest, FencingStrategyOrdering) {
  // cons >= emp-like subset >= none in runtime; fences never make an
  // application faster (Fig. 5 shows no point below the diagonal).
  const unsigned NumSites = apps::appNumSites(apps::AppKind::CbeDot);
  const auto None = measureCost(apps::AppKind::CbeDot, titan(),
                                sim::FencePolicy::none(NumSites), 15, 21);
  const auto OneFence =
      measureCost(apps::AppKind::CbeDot, titan(),
                  sim::FencePolicy::ofSites(NumSites, {3}), 15, 21);
  const auto Cons = measureCost(apps::AppKind::CbeDot, titan(),
                                sim::FencePolicy::all(NumSites), 15, 21);
  ASSERT_EQ(None.RunsUsed, 15u);
  EXPECT_GE(OneFence.RuntimeMs, None.RuntimeMs);
  EXPECT_GT(Cons.RuntimeMs, OneFence.RuntimeMs);
  EXPECT_GT(Cons.RuntimeMs, 1.5 * None.RuntimeMs)
      << "conservative fencing must be expensive";
  // A single rarely-executed fence stays far cheaper than fencing every
  // access. (The paper reports <3% median for emp fences; our kernels are
  // orders of magnitude shorter, so fixed fence latencies amortise less —
  // see EXPERIMENTS.md.)
  EXPECT_LT(OneFence.RuntimeMs, 1.6 * None.RuntimeMs);
  EXPECT_LT(OneFence.RuntimeMs, 0.8 * Cons.RuntimeMs);
}

TEST(CostBenchmarkTest, EnergyTracksRuntime) {
  const unsigned NumSites = apps::appNumSites(apps::AppKind::CbeHt);
  const auto None = measureCost(apps::AppKind::CbeHt, titan(),
                                sim::FencePolicy::none(NumSites), 10, 22);
  const auto Cons = measureCost(apps::AppKind::CbeHt, titan(),
                                sim::FencePolicy::all(NumSites), 10, 22);
  ASSERT_TRUE(None.EnergyValid);
  EXPECT_GT(Cons.EnergyJ, None.EnergyJ);
}

TEST(CostBenchmarkTest, EnergyInvalidWithoutPowerInstrumentation) {
  const auto &C770 = *sim::ChipProfile::lookup("770");
  const unsigned NumSites = apps::appNumSites(apps::AppKind::CbeDot);
  const auto M = measureCost(apps::AppKind::CbeDot, C770,
                             sim::FencePolicy::none(NumSites), 5, 23);
  EXPECT_FALSE(M.EnergyValid);
  EXPECT_EQ(M.RunsUsed, 5u);
}

TEST(CostBenchmarkTest, DiscardsErroneousRuns) {
  // Running an unfenced, fragile app under no stress rarely errs, so all
  // requested runs are used; the measurement reports discarded counts.
  const unsigned NumSites = apps::appNumSites(apps::AppKind::CtOctree);
  const auto M = measureCost(apps::AppKind::CtOctree, titan(),
                             sim::FencePolicy::none(NumSites), 10, 24);
  EXPECT_EQ(M.RunsUsed, 10u);
  EXPECT_GT(M.RuntimeMs, 0.0);
}

TEST(CostBenchmarkTest, Fig5CostsArePinnedOnBothEngines) {
  // Exact Fig. 5 costs, recorded from the hand-written coroutine kernels
  // the lowered plans replaced: with those bodies gone, these numbers
  // (and the seed-4 campaign golden in ParallelTests) are the independent
  // reference for the lowerings. Both engines must reproduce them bit
  // for bit. The campaign inserts no fences, so every lowered app is
  // pinned here under the all-sites policy and each single-site policy:
  // a fence at another site executes a different number of times or
  // stalls on a different store buffer, which moves the runtime or the
  // fence energy. Sites whose fences cost alike (say cub-scan's input
  // loads and output stores) are told apart by the event-stream pin in
  // EngineIdentityTests.
  using apps::AppKind;
  constexpr int None = -2, All = -1; // Otherwise the one fenced site.
  struct Golden {
    AppKind App;
    int Site;
    double RuntimeMs;
    double EnergyJ;
  };
  const Golden Expected[] = {
      {AppKind::CbeHt, All, 0.96003787878787883, 0.29929830303030303},
      {AppKind::CbeHt, 0, 0.33693181818181833, 0.1053500378787879},
      {AppKind::CbeHt, 1, 0.29043560606060609, 0.092213568181818195},
      {AppKind::CbeHt, 2, 0.29204545454545455, 0.092649363636363655},
      {AppKind::CbeHt, 3, 0.29109848484848494, 0.092378621212121245},
      {AppKind::CbeHt, 4, 0.29090909090909095, 0.09236660606060608},
      {AppKind::CbeHt, 5, 0.15549242424242427, 0.050832439393939395},
      {AppKind::CbeDot, None, 0.068750000000000019, 0.019061500000000002},
      {AppKind::CbeDot, All, 0.24280303030303033, 0.070831507575757582},
      {AppKind::CbeDot, 0, 0.10511363636363637, 0.035832409090909088},
      {AppKind::CbeDot, 1, 0.11363636363636363, 0.030455590909090915},
      {AppKind::CbeDot, 2, 0.10482954545454548, 0.028234719696969696},
      {AppKind::CbeDot, 3, 0.10501893939393941, 0.028282734848484852},
      {AppKind::CbeDot, 4, 0.077840909090909099, 0.021394227272727284},
      {AppKind::TpoTm, None, 2.1135416666666664, 0.75128491666666675},
      {AppKind::TpoTm, All, 15.183333333333335, 5.3240112499999999},
      {AppKind::TpoTm, 0, 6.0459280303030312, 2.1166904242424245},
      {AppKind::TpoTm, 1, 5.8257575757575752, 2.0648142272727275},
      {AppKind::TpoTm, 2, 6.7788825757575752, 2.4102920606060603},
      {AppKind::TpoTm, 3, 3.0296401515151512, 1.0834243712121212},
      {AppKind::TpoTm, 4, 2.4662878787878793, 0.87904313636363629},
      {AppKind::TpoTm, 5, 2.6702651515151516, 0.95312545454545461},
      {AppKind::TpoTm, 6, 2.0828598484848491, 0.73962654545454543},
      {AppKind::SdkRed, All, 0.16818181818181818, 0.048411954545454543},
      {AppKind::SdkRed, 0, 0.068655303030303053, 0.02315532575757576},
      {AppKind::SdkRed, 1, 0.068181818181818205, 0.019316954545454543},
      {AppKind::SdkRed, 2, 0.068655303030303053, 0.019435325757575759},
      {AppKind::SdkRed, 3, 0.1322916666666667, 0.03534441666666667},
      {AppKind::SdkRed, 4, 0.068655303030303053, 0.019330325757575761},
      {AppKind::SdkRedNf, All, 0.16477272727272729, 0.047439681818181818},
      {AppKind::SdkRedNf, 0, 0.064772727272727301, 0.022064681818181827},
      {AppKind::SdkRedNf, 1, 0.064772727272727301, 0.018344681818181826},
      {AppKind::SdkRedNf, 2, 0.064772727272727301, 0.018344681818181826},
      {AppKind::SdkRedNf, 3, 0.12840909090909092, 0.034253772727272723},
      {AppKind::SdkRedNf, 4, 0.064772727272727301, 0.018239681818181818},
      {AppKind::CubScan, All, 0.25340909090909092, 0.077376272727272738},
      {AppKind::CubScan, 0, 0.11969696969696973, 0.038986409090909106},
      {AppKind::CubScan, 1, 0.1195075757575758, 0.035218060606060593},
      {AppKind::CubScan, 2, 0.11931818181818186, 0.035169878787878778},
      {AppKind::CubScan, 3, 0.15340909090909091, 0.043892106060606069},
      {AppKind::CubScan, 4, 0.13314393939393943, 0.038692484848484844},
      {AppKind::CubScan, 5, 0.11969696969696973, 0.035203909090909098},
      {AppKind::CubScan, 6, 0.1215909090909091, 0.035746227272727284},
      {AppKind::CubScan, 7, 0.11969696969696973, 0.035266409090909084},
      {AppKind::CubScan, 8, 0.11969696969696973, 0.038986409090909106},
      {AppKind::CubScanNf, All, 0.24659090909090911, 0.075431727272727289},
      {AppKind::CubScanNf, 0, 0.11022727272727273, 0.03636931818181819},
      {AppKind::CubScanNf, 1, 0.11022727272727273, 0.032649318181818189},
      {AppKind::CubScanNf, 2, 0.11022727272727273, 0.032648818181818189},
      {AppKind::CubScanNf, 3, 0.14659090909090908, 0.041944727272727272},
      {AppKind::CubScanNf, 4, 0.12613636363636369, 0.036695840909090921},
      {AppKind::CubScanNf, 5, 0.11041666666666668, 0.032653249999999995},
      {AppKind::CubScanNf, 6, 0.11477272727272726, 0.033801348484848483},
      {AppKind::CubScanNf, 7, 0.11022727272727273, 0.032649318181818189},
      {AppKind::CubScanNf, 8, 0.11022727272727273, 0.03636931818181819},
      {AppKind::LsBh, None, 0.67500000000000016, 0.18336683333333337},
      {AppKind::LsBh, All, 5.6107954545454559, 1.5095939469696971},
      {AppKind::LsBh, 0, 0.78664772727272736, 0.2144176818181818},
      {AppKind::LsBh, 1, 0.69564393939393943, 0.18945656818181822},
      {AppKind::LsBh, 2, 0.71212121212121227, 0.19342113636363636},
      {AppKind::LsBh, 3, 0.93361742424242433, 0.25235985606060607},
      {AppKind::LsBh, 4, 0.71259469696969713, 0.19340617424242426},
      {AppKind::LsBh, 5, 0.6982954545454545, 0.18948536363636367},
      {AppKind::LsBh, 6, 0.95416666666666661, 0.26069775000000001},
      {AppKind::LsBh, 7, 1.2659090909090909, 0.33206910606060613},
      {AppKind::LsBh, 8, 2.6083333333333334, 0.66989016666666668},
      {AppKind::LsBh, 9, 2.2537878787878789, 0.64494130303030317},
      {AppKind::LsBh, 10, 0.69318181818181834, 0.18887228787878788},
      {AppKind::LsBh, 11, 0.69318181818181834, 0.18887228787878788},
      {AppKind::LsBhNf, None, 0.66126893939393949, 0.17954673484848485},
      {AppKind::LsBhNf, All, 5.6244318181818187, 1.5130779545454545},
      {AppKind::LsBhNf, 0, 0.77462121212121227, 0.2110781363636364},
      {AppKind::LsBhNf, 1, 0.68465909090909094, 0.18635552272727274},
      {AppKind::LsBhNf, 2, 0.69772727272727286, 0.18943473484848491},
      {AppKind::LsBhNf, 3, 0.92017045454545476, 0.24855944696969698},
      {AppKind::LsBhNf, 4, 0.69782196969696975, 0.18928899242424246},
      {AppKind::LsBhNf, 5, 0.68361742424242433, 0.18539918939393943},
      {AppKind::LsBhNf, 6, 0.94460227272727282, 0.25799156818181823},
      {AppKind::LsBhNf, 7, 1.2521780303030308, 0.32824900757575765},
      {AppKind::LsBhNf, 8, 2.5946022727272728, 0.66607006818181824},
      {AppKind::LsBhNf, 9, 2.2400568181818183, 0.64112120454545463},
      {AppKind::LsBhNf, 10, 0.67945075757575746, 0.18505218939393941},
      {AppKind::LsBhNf, 11, 0.67945075757575746, 0.18505218939393941},
      {AppKind::CtOctree, None, 0.025757575757575757, 0.0096662272727272743},
      {AppKind::CtOctree, All, 0.087500000000000022, 0.030882999999999997},
      {AppKind::CtOctree, 0, 0.035132575757575758, 0.012796477272727274},
      {AppKind::CtOctree, 1, 0.032954545454545459, 0.0121854696969697},
      {AppKind::CtOctree, 2, 0.050946969696969706, 0.017872742424242426},
      {AppKind::CtOctree, 3, 0.044412878787878786, 0.015837053030303031},
      {AppKind::CtOctree, 4, 0.034848484848484851, 0.012658954545454543},
  };
  for (const sim::EngineMode Mode :
       {sim::EngineMode::Auto, sim::EngineMode::Scalar}) {
    EngineModeGuard Guard(Mode);
    for (const Golden &G : Expected) {
      const unsigned NumSites = apps::appNumSites(G.App);
      const auto Policy =
          G.Site == None  ? sim::FencePolicy::none(NumSites)
          : G.Site == All ? sim::FencePolicy::all(NumSites)
                          : sim::FencePolicy::ofSites(
                                NumSites, {static_cast<unsigned>(G.Site)});
      const auto M = measureCost(G.App, titan(), Policy, 12, 5);
      const std::string What = std::string(apps::appName(G.App)) +
                               " site " + std::to_string(G.Site) + " on " +
                               sim::engineModeName(Mode);
      EXPECT_EQ(M.RuntimeMs, G.RuntimeMs) << What;
      EXPECT_EQ(M.EnergyJ, G.EnergyJ) << What;
      EXPECT_TRUE(M.EnergyValid) << What;
      EXPECT_EQ(M.RunsUsed, 12u) << What;
      EXPECT_EQ(M.RunsDiscarded, 0u) << What;
    }
  }
}

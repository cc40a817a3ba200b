//===- harden/LitmusHarden.cpp - Alg. 1 over litmus programs -----------------===//

#include "harden/LitmusHarden.h"

#include "litmus/Litmus.h"
#include "model/StreamingChecker.h"
#include "support/Check.h"
#include "support/Rng.h"

using namespace gpuwmm;
using namespace gpuwmm::harden;
using litmus::ProgOp;
using litmus::Program;

namespace {

bool isFenceSiteOp(const ProgOp &O) {
  switch (O.K) {
  case ProgOp::Kind::Store:
  case ProgOp::Kind::Load:
  case ProgOp::Kind::AwaitLoad:
  case ProgOp::Kind::AtomicAdd:
    return true;
  case ProgOp::Kind::AsyncLoad: // Completes at its await.
  case ProgOp::Kind::Fence:
  case ProgOp::Kind::OptFence:
    return false;
  }
  return false;
}

/// Inserts \p Fence after every enabled site of \p P (shared body of
/// apply/annotate; site numbering must match litmusFenceSites).
Program insertAtSites(const Program &P, const sim::FencePolicy &F,
                      const ProgOp &Fence) {
  GPUWMM_CHECK(litmusFenceSites(P).size() == F.numSites(),
               "fence policy does not match program");
  Program Q = P;
  unsigned Site = 0;
  for (litmus::ProgThread &T : Q.Threads) {
    std::vector<ProgOp> Ops;
    Ops.reserve(T.Ops.size());
    for (const ProgOp &O : T.Ops) {
      Ops.push_back(O);
      if (isFenceSiteOp(O) && F.fenceAfter(static_cast<int>(Site++)))
        Ops.push_back(Fence);
    }
    T.Ops = std::move(Ops);
  }
  return Q;
}

/// The oracle Alg. 1 reduces against: "check" = run the fenced candidate
/// CheckRuns times under the provoking stress with the streaming
/// consistency checker attached, and demand every run SC. Judging by the
/// checker's verdict — not by the program's forbidden outcome — is what
/// lets the hunt pipeline promise oracle-verified-SC corpus entries: a
/// fence set that merely suppresses the pinned outcome while other
/// non-SC behaviours survive does not pass. The K-th check runs with
/// seed stream deriveStream(Seed, K), so verdicts depend only on the
/// check's position in the reduction — deterministic for every --jobs
/// and --engine (the two engines are bit-identical by contract).
class LitmusCheckOracle final : public CheckOracle {
public:
  LitmusCheckOracle(const Program &P, const sim::ChipProfile &Chip,
                    const LitmusHardenOptions &Opts)
      : P(P), Chip(Chip), Opts(Opts) {
    Stress = Opts.Stressed ? litmus::LitmusRunner::MicroStress::tuned(
                                 Chip, Opts.StressRegion)
                           : litmus::LitmusRunner::MicroStress::none();
  }

  bool checkApplication(const sim::FencePolicy &F,
                        unsigned Iterations) override {
    const Program Fenced = applyLitmusFences(P, F);
    litmus::LitmusRunner Runner(Chip, Rng::deriveStream(Opts.Seed, Checks++));
    litmus::LitmusRunOpts RO;
    RO.Sink = &Checker;
    for (unsigned I = 0; I != Iterations; ++I) {
      Checker.begin();
      (void)Runner.runOnce(Fenced, Opts.Distance, Stress, RO);
      ++Execs;
      const model::StreamVerdict &V = Checker.finish();
      if (!V.AxiomsOk || V.weak())
        return false;
    }
    return true;
  }

  bool empiricallyStable(const sim::FencePolicy &F) override {
    return checkApplication(F, Opts.StableRuns);
  }

  uint64_t executions() const { return Execs; }

private:
  const Program &P;
  const sim::ChipProfile &Chip;
  const LitmusHardenOptions &Opts;
  litmus::LitmusRunner::MicroStress Stress;
  model::StreamingChecker Checker;
  uint64_t Checks = 0;
  uint64_t Execs = 0;
};

} // namespace

std::vector<LitmusFenceSite>
harden::litmusFenceSites(const Program &P) {
  std::vector<LitmusFenceSite> Sites;
  for (unsigned TI = 0; TI != P.Threads.size(); ++TI)
    for (size_t I = 0; I != P.Threads[TI].Ops.size(); ++I)
      if (isFenceSiteOp(P.Threads[TI].Ops[I]))
        Sites.push_back({TI, I});
  return Sites;
}

Program harden::applyLitmusFences(const Program &P,
                                  const sim::FencePolicy &F) {
  return insertAtSites(P, F, ProgOp::fence());
}

Program harden::annotateOptFences(const Program &P,
                                  const sim::FencePolicy &F) {
  return insertAtSites(P, F, ProgOp::optFence());
}

Program harden::stripOptFences(const Program &P) {
  Program Q = P;
  for (litmus::ProgThread &T : Q.Threads) {
    std::vector<ProgOp> Ops;
    Ops.reserve(T.Ops.size());
    for (const ProgOp &O : T.Ops)
      if (O.K != ProgOp::Kind::OptFence)
        Ops.push_back(O);
    T.Ops = std::move(Ops);
  }
  return Q;
}

LitmusHardenResult harden::hardenLitmusProgram(
    const Program &P, const sim::ChipProfile &Chip,
    const LitmusHardenOptions &Opts) {
  LitmusHardenResult R;
  R.NumSites = static_cast<unsigned>(litmusFenceSites(P).size());

  LitmusCheckOracle Oracle(P, Chip, Opts);
  InsertionConfig Cfg;
  Cfg.InitialIterations = Opts.CheckRuns;
  R.Insertion = empiricalFenceInsertion(sim::FencePolicy::all(R.NumSites),
                                        Oracle, Cfg);
  R.Fences = R.Insertion.Fences;
  R.Hardened = applyLitmusFences(P, R.Fences);
  R.Annotated = annotateOptFences(P, R.Fences);
  R.Executions = Oracle.executions();
  return R;
}

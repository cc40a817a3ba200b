//===- hunt/Corpus.h - Crash-safe canonical corpus of weak cases -*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hunt pipeline's on-disk corpus (DESIGN.md Sec. 18): a growing,
/// deduplicated collection of minimal, fence-annotated weak litmus tests.
/// A corpus directory is a durable record directory (RecordDir,
/// support/ShardIo.h, shared with the campaign fabric: manifest check,
/// log claiming, scanning and crash hook) plus one artifact per entry:
///
///   manifest.json        the chip, seed and stage budgets the corpus was
///                        mined with; every hunt joining the directory
///                        must match it byte for byte (rounds are NOT
///                        pinned — a resumed hunt may extend them)
///   corpus-NNNN.jsonl    one log per hunt invocation: one record per
///                        corpus entry (stats plus the full `.litmus`
///                        text) and one `round_done` marker per completed
///                        round
///   <name>.litmus        one replayable artifact per entry (atomic
///                        write; re-published for every entry on resume,
///                        healing a crash between record and artifact)
///
/// Entries are keyed by the canonical printed form of their weak core
/// (fuzz/Shrink.h's canonicalKey): the same underlying bug found from
/// different fuzz seeds, rounds or job counts collapses to one entry.
/// Crash model: as the fabric's — a SIGKILL can tear at most the tail
/// record of one log; loaders truncate it, and a resumed hunt re-runs the
/// torn round deterministically, with dedupe making re-discovered entries
/// no-ops.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_HUNT_CORPUS_H
#define GPUWMM_HUNT_CORPUS_H

#include "litmus/Program.h"
#include "support/ShardIo.h"

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace gpuwmm {
namespace hunt {

/// The fixed per-axiom report keys: every axiom-violation message the
/// checkers emit starts with one of these prefixes, plus "causality" for
/// weak (cycle) verdicts. Reports always emit all of them, in this order.
inline constexpr size_t NumAxioms = 8;
const std::array<const char *, NumAxioms> &axiomKeys();

/// Maps a verdict onto an axiomKeys() index: the message prefix (up to
/// the first ':') for an axiom violation, "causality" for a weak verdict.
/// -1 for an unknown prefix (a checker/report drift bug).
int axiomKeyIndex(const std::string &ViolationMessage);

/// One mined corpus entry: the annotated minimal program plus the stats
/// of the pipeline stages that produced and verified it.
struct CorpusEntry {
  std::string Name;  ///< "hunt-000000", assigned at append.
  unsigned Round = 0;
  uint32_t KeyCrc = 0; ///< crc32 of \ref Key (the record's compact form).
  std::string Key;     ///< Canonical key text (recomputed on load).
  /// The minimal weak program with `fence?` at the kept hardening sites:
  /// plain runs reproduce the weak outcome, --fences runs are hardened.
  litmus::Program Annotated;
  // Shrink stage.
  unsigned OriginalOps = 0, ReducedOps = 0;
  unsigned ShrinkCandidates = 0, ShrinkAccepted = 0;
  uint64_t CrossChecks = 0;
  unsigned ProvokingRegion = 0;
  // Harden stage (Alg. 1; attempts > 1 when a verify-clean fence set
  // needed budget escalation).
  unsigned FenceSites = 0, Fences = 0, HardenRounds = 0;
  unsigned HardenAttempts = 0;
  bool HardenStable = false;
  // Oracle verification of the hardened program.
  unsigned VerifyRuns = 0, VerifyWeak = 0, VerifyForbidden = 0;
  std::array<uint64_t, NumAxioms> AxiomViolations{};
};

/// \p E as one line of JSON: the corpus record, or (without the axiom
/// counters) an entry of the hunt report.
std::string entryJson(const CorpusEntry &E, bool WithAxioms = true);

/// The corpus identity pinned by manifest.json. Rounds are deliberately
/// absent: resuming with a larger --rounds extends the same corpus.
struct CorpusManifest {
  std::string Chip;
  uint64_t Seed = 0;
  unsigned Programs = 0, RunsPerProgram = 0;
  unsigned NumVars = 0, OpsPerThread = 0;
  unsigned Distance = 0;
  unsigned ShrinkRuns = 0, HardenRuns = 0, StableRuns = 0, VerifyRuns = 0;

  std::string render() const; ///< The manifest.json bytes.
};

/// The corpus store. Open one per hunt invocation; with an empty
/// directory path it is purely in-memory (dedupe still works, nothing
/// survives the process).
class Corpus {
public:
  struct OpenOptions {
    std::string Dir; ///< Empty = in-memory.
    bool Resume = false;
    /// Crash-injection test hook (RecordDir's): SIGKILL the process
    /// right after the Nth durable record append (0 = off).
    unsigned CrashAfterAppends = 0;
  };

  /// Opens or creates \p Opts.Dir. A fresh directory is initialised with
  /// \p M; an existing one must match \p M byte for byte and requires
  /// \p Opts.Resume (refusing to silently mix corpora). Loads every
  /// durable entry (torn tails truncated with a warning, key CRCs
  /// re-verified against the stored programs) and re-publishes each
  /// entry's .litmus artifact.
  static bool open(const OpenOptions &Opts, const CorpusManifest &M,
                   Corpus &Out, std::string *Err);

  bool contains(const std::string &Key) const {
    return Keys.count(Key) != 0;
  }

  /// Entries in append order (loaded + this invocation's).
  const std::vector<CorpusEntry> &entries() const { return Entries; }

  /// Last round a `round_done` marker is durable for; -1 when none (a
  /// resumed hunt restarts at lastCompletedRound() + 1).
  int lastCompletedRound() const { return LastRound; }

  const std::vector<std::string> &warnings() const { return Warnings; }

  /// Assigns \p E.Name from the corpus size, appends the record durably
  /// and publishes the .litmus artifact. The entry's Key must not
  /// already be present (dedupe is the caller's serial stage).
  bool append(CorpusEntry E, std::string *Err);

  /// Appends the round-completion marker for \p Round.
  bool markRoundDone(unsigned Round, std::string *Err);

private:
  std::optional<RecordDir> Store; ///< Absent in in-memory mode.
  std::vector<CorpusEntry> Entries;
  std::unordered_set<std::string> Keys;
  int LastRound = -1;
  std::vector<std::string> Warnings;
};

} // namespace hunt
} // namespace gpuwmm

#endif // GPUWMM_HUNT_CORPUS_H

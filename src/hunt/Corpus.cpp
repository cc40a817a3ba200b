//===- hunt/Corpus.cpp - Crash-safe canonical corpus of weak cases ----------===//

#include "hunt/Corpus.h"

#include "fuzz/Shrink.h"
#include "harden/LitmusHarden.h"
#include "litmus/Format.h"
#include "support/Json.h"
#include "support/Options.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace gpuwmm;
using namespace gpuwmm::hunt;

const std::array<const char *, NumAxioms> &hunt::axiomKeys() {
  // The first seven are the message prefixes of the checkers' axiom
  // violations (model/Replay.h); "causality" counts weak (axioms-clean but
  // non-SC) verdicts.
  static const std::array<const char *, NumAxioms> Keys = {
      "coherence-per-location", "same-bank FIFO", "fence-drain",
      "self-coherence",         "forwarding",     "same-bank issue order",
      "read-value",             "causality"};
  return Keys;
}

int hunt::axiomKeyIndex(const std::string &ViolationMessage) {
  const size_t Colon = ViolationMessage.find(':');
  const std::string Prefix = Colon == std::string::npos
                                 ? ViolationMessage
                                 : ViolationMessage.substr(0, Colon);
  const auto &Keys = axiomKeys();
  for (size_t I = 0; I != Keys.size(); ++I)
    if (Prefix == Keys[I])
      return static_cast<int>(I);
  return -1;
}

std::string CorpusManifest::render() const {
  std::string S;
  S += "{\n";
  S += "  \"schema\": \"gpuwmm-hunt-manifest-v1\",\n";
  S += "  \"report_schema\": \"gpuwmm-hunt-v1\",\n";
  S += "  \"tool\": {\"name\": \"gpuwmm\", \"version\": \"" GPUWMM_VERSION
       "\"},\n";
  S += "  \"chip\": \"" + jsonEscape(Chip) + "\",\n";
  S += "  \"seed\": " + std::to_string(Seed) + ",\n";
  S += "  \"programs\": " + std::to_string(Programs) + ",\n";
  S += "  \"runs_per_program\": " + std::to_string(RunsPerProgram) + ",\n";
  S += "  \"num_vars\": " + std::to_string(NumVars) + ",\n";
  S += "  \"ops_per_thread\": " + std::to_string(OpsPerThread) + ",\n";
  S += "  \"distance\": " + std::to_string(Distance) + ",\n";
  S += "  \"shrink_runs\": " + std::to_string(ShrinkRuns) + ",\n";
  S += "  \"harden_runs\": " + std::to_string(HardenRuns) + ",\n";
  S += "  \"stable_runs\": " + std::to_string(StableRuns) + ",\n";
  S += "  \"verify_runs\": " + std::to_string(VerifyRuns) + "\n";
  S += "}\n";
  return S;
}

namespace {

/// A corpus directory as RecordDir lays it out.
constexpr RecordDir::Naming CorpusNaming = {
    "corpus", "corpus",
    "hunt (chip, seed or stage budgets differ); use a fresh --corpus-dir "
    "or matching flags",
    "round"};

std::string hex8(uint32_t V) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%08x", V);
  return Buf;
}

} // namespace

std::string hunt::entryJson(const CorpusEntry &E, bool WithAxioms) {
  std::string S = "{";
  S += "\"name\": \"" + jsonEscape(E.Name) + "\"";
  S += ", \"round\": " + std::to_string(E.Round);
  S += ", \"key_crc\": \"" + hex8(E.KeyCrc) + "\"";
  S += ", \"original_ops\": " + std::to_string(E.OriginalOps);
  S += ", \"reduced_ops\": " + std::to_string(E.ReducedOps);
  S += ", \"shrink_candidates\": " + std::to_string(E.ShrinkCandidates);
  S += ", \"shrink_accepted\": " + std::to_string(E.ShrinkAccepted);
  S += ", \"cross_checks\": " + std::to_string(E.CrossChecks);
  S += ", \"provoking_region\": " + std::to_string(E.ProvokingRegion);
  S += ", \"fence_sites\": " + std::to_string(E.FenceSites);
  S += ", \"fences\": " + std::to_string(E.Fences);
  S += ", \"harden_rounds\": " + std::to_string(E.HardenRounds);
  S += ", \"harden_attempts\": " + std::to_string(E.HardenAttempts);
  S += std::string(", \"harden_stable\": ") +
       (E.HardenStable ? "true" : "false");
  S += ", \"verify_runs\": " + std::to_string(E.VerifyRuns);
  S += ", \"verify_weak\": " + std::to_string(E.VerifyWeak);
  S += ", \"verify_forbidden\": " + std::to_string(E.VerifyForbidden);
  if (WithAxioms) {
    S += ", \"axiom_violations\": {";
    const auto &Keys = axiomKeys();
    for (size_t I = 0; I != Keys.size(); ++I) {
      S += I ? ", " : "";
      // Built without operator+ to dodge GCC 12's -Wrestrict false
      // positive.
      S += "\"";
      S += Keys[I];
      S += "\": ";
      S += std::to_string(E.AxiomViolations[I]);
    }
    S += "}";
  }
  S += ", \"litmus\": \"";
  S += jsonEscape(litmus::printLitmus(E.Annotated));
  S += "\"}";
  return S;
}

namespace {

/// Whether \p Name has the form Corpus::append gives entries
/// ("hunt-" and at least six digits): it names a file in the corpus
/// directory, so a damaged one must not reach the file system.
bool isEntryName(const std::string &Name) {
  return Name.size() >= 11 && Name.compare(0, 5, "hunt-") == 0 &&
         Name.find_first_not_of("0123456789", 5) == std::string::npos;
}

bool entryFromJson(const JsonValue &Doc, CorpusEntry &E, std::string *Err) {
  using Kind = JsonValue::Kind;
  const JsonValue *Name = jsonField(Doc, "name", Kind::String, Err);
  const JsonValue *KeyCrc = jsonField(Doc, "key_crc", Kind::String, Err);
  const JsonValue *Stable = jsonField(Doc, "harden_stable", Kind::Bool, Err);
  const JsonValue *Cross = jsonField(Doc, "cross_checks", Kind::Number, Err);
  const JsonValue *Axioms =
      jsonField(Doc, "axiom_violations", Kind::Object, Err);
  const JsonValue *Litmus = jsonField(Doc, "litmus", Kind::String, Err);
  if (!Name || !KeyCrc || !Stable || !Cross || !Axioms || !Litmus)
    return false;
  E.Name = Name->asString();
  if (!isEntryName(E.Name)) {
    if (Err)
      *Err = "record has a malformed entry name '" + E.Name + "'";
    return false;
  }
  E.KeyCrc = static_cast<uint32_t>(
      std::strtoul(KeyCrc->asString().c_str(), nullptr, 16));
  E.HardenStable = Stable->asBool();
  E.CrossChecks = Cross->asUInt64();
  for (const auto &[Key, Field] :
       {std::pair{"round", &CorpusEntry::Round},
        {"original_ops", &CorpusEntry::OriginalOps},
        {"reduced_ops", &CorpusEntry::ReducedOps},
        {"shrink_candidates", &CorpusEntry::ShrinkCandidates},
        {"shrink_accepted", &CorpusEntry::ShrinkAccepted},
        {"provoking_region", &CorpusEntry::ProvokingRegion},
        {"fence_sites", &CorpusEntry::FenceSites},
        {"fences", &CorpusEntry::Fences},
        {"harden_rounds", &CorpusEntry::HardenRounds},
        {"harden_attempts", &CorpusEntry::HardenAttempts},
        {"verify_runs", &CorpusEntry::VerifyRuns},
        {"verify_weak", &CorpusEntry::VerifyWeak},
        {"verify_forbidden", &CorpusEntry::VerifyForbidden}})
    if (!jsonCount(Doc, Key, E.*Field, Err))
      return false;
  const auto &Keys = axiomKeys();
  for (size_t I = 0; I != Keys.size(); ++I) {
    const JsonValue *V = jsonField(*Axioms, Keys[I], Kind::Number, Err);
    if (!V)
      return false;
    E.AxiomViolations[I] = V->asUInt64();
  }
  litmus::ParseError ParseErr;
  const std::optional<litmus::Program> P =
      litmus::parseLitmus(Litmus->asString(), ParseErr);
  if (!P) {
    if (Err)
      *Err = "entry '" + E.Name +
             "' holds an unparseable litmus text: " + ParseErr.Message;
    return false;
  }
  E.Annotated = *P;
  // The key is derived state: recompute it from the stored program and
  // demand it matches the recorded CRC, so any corruption that survives
  // the record framing (or a canonicaliser drift across versions) is
  // caught at load instead of silently splitting the corpus.
  E.Key = fuzz::canonicalKey(harden::stripOptFences(E.Annotated));
  if (crc32(E.Key) != E.KeyCrc) {
    if (Err)
      *Err = "entry '" + E.Name + "' fails its canonical-key CRC check " +
             "(stored " + hex8(E.KeyCrc) + ", recomputed " +
             hex8(crc32(E.Key)) + ")";
    return false;
  }
  return true;
}

} // namespace

bool Corpus::open(const OpenOptions &Opts, const CorpusManifest &M,
                  Corpus &Out, std::string *Err) {
  Out = Corpus();
  if (Opts.Dir.empty())
    return true;

  std::optional<RecordDir> Store = RecordDir::open(
      Opts.Dir, CorpusNaming, M.render(), Opts.CrashAfterAppends, Err);
  if (!Store)
    return false;
  if (Store->existed() && !Opts.Resume) {
    if (Err)
      *Err = "'" + Opts.Dir + "' already holds a corpus; pass --resume "
             "to extend it";
    return false;
  }

  // Load every durable record from every log, oldest-claimed first.
  std::vector<ScannedLog> Logs;
  if (!RecordDir::scan(Opts.Dir, CorpusNaming, Logs, Out.Warnings, Err))
    return false;
  for (const ScannedLog &Log : Logs) {
    for (const std::string &Payload : Log.Records.Payloads) {
      std::string ParseErr;
      const std::optional<JsonValue> Doc = parseJson(Payload, &ParseErr);
      if (!Doc || !Doc->isObject()) {
        if (Err)
          *Err = "'" + Log.Path + "': " +
                 (ParseErr.empty() ? "record is not a JSON object"
                                   : ParseErr);
        return false;
      }
      if (Doc->find("round_done")) {
        unsigned Done = 0;
        if (!jsonCount(*Doc, "round_done", Done, nullptr) ||
            Done > Options::MaxCount) {
          if (Err)
            *Err = "'" + Log.Path + "': malformed round_done record";
          return false;
        }
        Out.LastRound = std::max(Out.LastRound, static_cast<int>(Done));
        continue;
      }
      CorpusEntry E;
      if (!entryFromJson(*Doc, E, Err)) {
        if (Err)
          *Err = "'" + Log.Path + "': " + *Err;
        return false;
      }
      // First record wins per key: a crashed round re-run on resume may
      // durably rediscover an entry an earlier log already holds.
      if (!Out.Keys.insert(E.Key).second)
        continue;
      Out.Entries.push_back(std::move(E));
    }
  }

  // Re-publish every entry's replayable artifact: a crash between the
  // record append and the artifact write leaves the record (the source
  // of truth) without its .litmus file, and this heals it.
  for (const CorpusEntry &E : Out.Entries)
    if (!atomicWriteFile(Opts.Dir + "/" + E.Name + ".litmus",
                         litmus::printLitmus(E.Annotated), Err))
      return false;
  Out.Store = std::move(Store);
  return true;
}

bool Corpus::append(CorpusEntry E, std::string *Err) {
  if (E.Key.empty() || Keys.count(E.Key)) {
    if (Err)
      *Err = E.Key.empty() ? "corpus entry has no canonical key"
                           : "duplicate corpus entry for key";
    return false;
  }
  char Name[32];
  std::snprintf(Name, sizeof(Name), "hunt-%06zu", Entries.size());
  E.Name = Name;
  // The stored program carries its corpus identity, nothing else: the
  // fuzz export's name and doc comment do not survive the record
  // round-trip (the parser discards comments), and keeping them would
  // make a resumed corpus re-publish different artifact bytes than the
  // invocation that mined them.
  E.Annotated.Name = E.Name;
  E.Annotated.Doc.clear();
  E.KeyCrc = crc32(E.Key);
  if (Store && (!Store->append(entryJson(E), Err) ||
                !atomicWriteFile(Store->dir() + "/" + E.Name + ".litmus",
                                 litmus::printLitmus(E.Annotated), Err)))
    return false;
  Keys.insert(E.Key);
  Entries.push_back(std::move(E));
  return true;
}

bool Corpus::markRoundDone(unsigned Round, std::string *Err) {
  if (Store &&
      !Store->append("{\"round_done\": " + std::to_string(Round) + "}",
                     Err))
    return false;
  LastRound = std::max(LastRound, static_cast<int>(Round));
  return true;
}

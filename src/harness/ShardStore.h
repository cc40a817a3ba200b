//===- harness/ShardStore.h - Durable per-cell result store ----*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign fabric's shard store (DESIGN.md Sec. 16): a durable
/// record directory (RecordDir, support/ShardIo.h, which owns the
/// manifest check, log claiming, scanning and crash hook) holding
///
///   manifest.json      the grid, seed, runs, oracle setting and schema;
///                      every worker joining the directory must match it
///                      byte for byte
///   shard-NNNN.jsonl   one log per worker process, one self-describing
///                      record per completed cell
///
/// Invariants: records are keyed by canonical cell identity, so merging
/// is order-independent and idempotent — duplicates (two workers racing
/// the same stripe, or a re-run without --resume) carry identical bytes
/// and are deduped; a crash can tear at most the tail record of one
/// shard, which loaders detect by CRC and truncate with a warning.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_HARNESS_SHARDSTORE_H
#define GPUWMM_HARNESS_SHARDSTORE_H

#include "harness/Campaign.h"
#include "support/ShardIo.h"

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace gpuwmm {
namespace harness {

/// One durable per-cell result: the self-describing payload of a shard
/// record. Carries the cell's identity (names, not indices), its derived
/// seed (so merges can detect seed-scheme drift) and every count the
/// schema-v2 report needs.
struct ShardRecord {
  bool IsLitmus = false;
  std::string Chip;
  std::string Env;  ///< App cells only.
  std::string App;  ///< App cells only.
  std::string Test; ///< Litmus cells only.
  uint64_t Seed = 0;
  unsigned Runs = 0;
  unsigned Errors = 0;   ///< App cells only.
  unsigned Timeouts = 0; ///< App cells only.
  unsigned Weak = 0;     ///< Litmus cells only.
  unsigned OracleChecked = 0;
  unsigned OracleViolations = 0;

  /// The record's cell identity: "app/<chip>/<env>/<app>" or
  /// "litmus/<chip>/<test>" (matches WorkList keys).
  std::string key() const;

  /// Renders the record as a single-line JSON object.
  std::string toJson() const;

  /// Parses a record payload. nullopt + \p Err on malformed input.
  static std::optional<ShardRecord> fromJson(std::string_view Payload,
                                             std::string *Err);

  bool operator==(const ShardRecord &O) const = default;
};

/// The canonical manifest text for \p Config — stable key order and
/// formatting, so "same campaign" is a byte comparison.
std::string campaignManifestJson(const CampaignConfig &Config);

/// Reconstructs a CampaignConfig from manifest text (chips, envs, apps
/// and litmus tests are resolved against the built-in tables). False +
/// \p Err on malformed text or names this build does not know.
bool parseCampaignManifest(const std::string &Text, CampaignConfig &Config,
                           std::string *Err);

/// Reads and parses \p Dir's manifest.json.
bool loadCampaignManifest(const std::string &Dir, CampaignConfig &Config,
                          std::string *Err);

/// A worker's handle on a campaign directory: a RecordDir
/// (support/ShardIo.h) whose manifest is campaignManifestJson() and whose
/// records are ShardRecords, one per completed cell.
class ShardStore {
public:
  /// Opens \p Dir for \p Config. Creates the directory (one level) and
  /// atomically publishes the manifest when absent; when present, the
  /// existing manifest must equal campaignManifestJson(Config) byte for
  /// byte — a mismatch (different grid, seed, runs, oracle or tool
  /// version) fails rather than silently mixing campaigns.
  /// \p CrashAfterAppends arms RecordDir's SIGKILL hook (0 = off).
  static std::optional<ShardStore> open(const std::string &Dir,
                                        const CampaignConfig &Config,
                                        std::string *Err,
                                        unsigned CrashAfterAppends = 0);

  /// Durably appends one record: framed, written, fsync'd. The first
  /// append claims a fresh shard-NNNN.jsonl via O_EXCL.
  bool append(const ShardRecord &Record, std::string *Err) {
    return Records.append(Record.toJson(), Err);
  }

  /// The shard file this store appends to; empty until the first append.
  const std::string &shardPath() const { return Records.logPath(); }
  const std::string &dir() const { return Records.dir(); }

private:
  explicit ShardStore(RecordDir R) : Records(std::move(R)) {}

  RecordDir Records;
};

/// Every durable record in \p Dir: all shard-*.jsonl files in sorted
/// name order, deduplicated by cell identity (first occurrence wins —
/// determinism makes duplicates byte-equal; a *conflicting* duplicate is
/// reported as corruption and fails the load). Torn tails are truncated
/// and surfaced as warnings, not errors.
struct LoadedShards {
  std::vector<ShardRecord> Records;      ///< Deduped, load order.
  std::map<std::string, size_t> ByKey;   ///< key() -> index in Records.
  unsigned ShardFiles = 0;
  unsigned Duplicates = 0;
  unsigned TornShards = 0;
  std::vector<std::string> Warnings;
};

bool loadCampaignShards(const std::string &Dir, LoadedShards &Out,
                        std::string *Err);

} // namespace harness
} // namespace gpuwmm

#endif // GPUWMM_HARNESS_SHARDSTORE_H

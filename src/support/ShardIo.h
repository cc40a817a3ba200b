//===- support/ShardIo.h - Durable record I/O primitives -------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable storage layer of the sharded campaign fabric and the hunt
/// corpus (DESIGN.md Sec. 16): CRC-framed append-only record logs with a
/// per-record fsync, atomic write-then-rename file publication, and
/// RecordDir, the one directory layout both stores share (a pinned
/// manifest plus one claimed log per writer).
///
/// Crash model: a worker can die (SIGKILL, OOM, power loss) at any
/// instruction. Because every record is appended with one write() and
/// fsync'd before the append returns, the only damage a crash can cause
/// is a torn *tail* — a partial or corrupt final record — which readers
/// detect via the per-record CRC and truncate. Everything before the tail
/// is durable. Atomic writes (write temp, fsync, rename, fsync directory)
/// guarantee a published file is either absent or complete, never partial.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SUPPORT_SHARDIO_H
#define GPUWMM_SUPPORT_SHARDIO_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gpuwmm {

/// CRC-32 (the standard reflected 0xEDB88320 polynomial) of \p Data.
uint32_t crc32(std::string_view Data);

/// Frames one record payload as a log line: 8 lowercase hex digits of
/// crc32(payload), a ':', the payload, '\n'. Payloads must not contain
/// newlines (the fabric's payloads are single-line JSON objects).
std::string frameRecord(std::string_view Payload);

/// The result of scanning a record log: every complete, CRC-valid record
/// in order, plus whether (and where) a torn tail was truncated.
struct FramedRecords {
  std::vector<std::string> Payloads;
  /// True when trailing bytes after the last valid record were not a
  /// complete, CRC-valid record — the signature of a crash mid-append.
  bool TornTail = false;
  /// Byte offset at which valid data ends (== text size when not torn).
  size_t ValidBytes = 0;
};

/// Scans \p Text as a sequence of framed records. Stops at the first
/// byte that does not begin a complete, CRC-valid record and reports the
/// remainder as a torn tail; under the append-only + fsync-per-record
/// discipline only the final record can ever be torn.
FramedRecords parseFramedRecords(std::string_view Text);

/// Reads all of \p Path into \p Out. False + \p Err on failure.
bool readFile(const std::string &Path, std::string &Out, std::string *Err);

/// Atomically publishes \p Contents at \p Path: writes "<Path>.tmp",
/// fsyncs it, renames it over \p Path, and fsyncs the parent directory.
/// A reader (or a crash) can only ever observe the old file, no file, or
/// the complete new file. False + \p Err on failure.
bool atomicWriteFile(const std::string &Path, std::string_view Contents,
                     std::string *Err);

/// An append-only log of CRC-framed records, fsync'd per append: once
/// append() returns true the record survives any crash.
class RecordLog {
public:
  RecordLog() = default;
  ~RecordLog();
  RecordLog(RecordLog &&O) noexcept;
  RecordLog &operator=(RecordLog &&O) noexcept;
  RecordLog(const RecordLog &) = delete;
  RecordLog &operator=(const RecordLog &) = delete;

  /// Creates \p Path exclusively (O_CREAT | O_EXCL): two workers racing
  /// for the same name cannot both win, so claiming a log file doubles as
  /// a lock-free shard-name allocator. Fsyncs the parent directory so the
  /// name itself is durable. nullopt + \p Err on failure; \p Exists is
  /// set when the failure was "already exists" (callers then try the
  /// next candidate name).
  static std::optional<RecordLog> createExclusive(const std::string &Path,
                                                  std::string *Err,
                                                  bool *Exists = nullptr);

  /// Appends one framed record and fsyncs. False + \p Err on failure.
  bool append(std::string_view Payload, std::string *Err);

  const std::string &path() const { return LogPath; }
  bool isOpen() const { return Fd >= 0; }

private:
  int Fd = -1;
  std::string LogPath;
};

/// One record log of a RecordDir, as RecordDir::scan read it.
struct ScannedLog {
  std::string Path;
  FramedRecords Records;
};

/// A durable record directory: manifest.json, which pins what the
/// directory holds, plus append-only "<Prefix>-NNNN.jsonl" record logs,
/// one per writer process. The campaign's shard store (harness/
/// ShardStore.h) and the hunt corpus (hunt/Corpus.h) are both one; they
/// add only their record schemas and dedupe rules.
class RecordDir {
public:
  /// How a store names its logs and itself in errors.
  struct Naming {
    const char *Prefix;   ///< Logs are "<Prefix>-NNNN.jsonl".
    const char *Noun;     ///< "cannot create <Noun> directory '...'".
    const char *Mismatch; ///< "'<manifest>' describes a different ...".
    const char *Unit;     ///< What a resume re-runs after a torn tail.
  };

  /// Opens \p Dir: creates it (one level) and atomically publishes
  /// \p Manifest when no manifest exists, or requires the existing one to
  /// equal \p Manifest byte for byte, so two different runs never mix in
  /// one directory. With \p CrashAfterAppends = N > 0 the Nth append()
  /// SIGKILLs the process once its record is durable (the crash tests'
  /// hook). nullopt + \p Err on failure.
  static std::optional<RecordDir> open(const std::string &Dir,
                                       const Naming &Names,
                                       std::string_view Manifest,
                                       unsigned CrashAfterAppends,
                                       std::string *Err);

  /// Appends one record durably (framed, written, fsync'd). The first
  /// append claims the lowest free log name via O_EXCL, so writers
  /// sharing the directory never share a log.
  bool append(std::string_view Payload, std::string *Err);

  /// Every log in \p Dir in sorted-name (= claim) order, read and
  /// CRC-scanned. A torn tail is no error: it adds a warning.
  static bool scan(const std::string &Dir, const Naming &Names,
                   std::vector<ScannedLog> &Logs,
                   std::vector<std::string> &Warnings, std::string *Err);

  /// Whether the manifest already existed when open() ran.
  bool existed() const { return Existed; }
  const std::string &dir() const { return Directory; }
  /// The log this writer appends to; empty until the first append.
  const std::string &logPath() const { return Log.path(); }

private:
  RecordDir() = default;

  std::string Directory;
  std::string Prefix;
  bool Existed = false;
  unsigned CrashAfterAppends = 0;
  unsigned Appends = 0;
  RecordLog Log;
};

} // namespace gpuwmm

#endif // GPUWMM_SUPPORT_SHARDIO_H

//===- support/ShardIo.cpp - Durable record I/O primitives -------------------===//

#include "support/ShardIo.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace gpuwmm;

namespace {

/// The reflected CRC-32 table, built once.
const std::array<uint32_t, 256> &crcTable() {
  static const std::array<uint32_t, 256> Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  return Table;
}

void setErr(std::string *Err, const std::string &What) {
  if (Err)
    *Err = What + ": " + std::strerror(errno);
}

/// fsyncs the directory containing \p Path so a created/renamed name is
/// durable, not just the file contents.
bool fsyncParentDir(const std::string &Path, std::string *Err) {
  const size_t Slash = Path.find_last_of('/');
  const std::string Dir = Slash == std::string::npos
                              ? std::string(".")
                              : Path.substr(0, Slash == 0 ? 1 : Slash);
  const int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0) {
    setErr(Err, "cannot open directory '" + Dir + "'");
    return false;
  }
  const bool Ok = ::fsync(Fd) == 0;
  if (!Ok)
    setErr(Err, "cannot fsync directory '" + Dir + "'");
  ::close(Fd);
  return Ok;
}

bool writeAll(int Fd, std::string_view Data, std::string *Err,
              const std::string &Path) {
  size_t Done = 0;
  while (Done != Data.size()) {
    const ssize_t N = ::write(Fd, Data.data() + Done, Data.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      setErr(Err, "cannot write '" + Path + "'");
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

/// Parses exactly 8 lowercase hex digits; false on any other character.
bool parseCrcHex(std::string_view Hex, uint32_t &Out) {
  if (Hex.size() != 8)
    return false;
  uint32_t V = 0;
  for (char C : Hex) {
    V <<= 4;
    if (C >= '0' && C <= '9')
      V |= static_cast<uint32_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      V |= static_cast<uint32_t>(C - 'a' + 10);
    else
      return false;
  }
  Out = V;
  return true;
}

} // namespace

uint32_t gpuwmm::crc32(std::string_view Data) {
  const auto &Table = crcTable();
  uint32_t C = 0xFFFFFFFFu;
  for (unsigned char B : Data)
    C = Table[(C ^ B) & 0xFFu] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

std::string gpuwmm::frameRecord(std::string_view Payload) {
  char Hex[9];
  std::snprintf(Hex, sizeof(Hex), "%08x", crc32(Payload));
  std::string Line;
  Line.reserve(Payload.size() + 10);
  Line += Hex;
  Line += ':';
  Line += Payload;
  Line += '\n';
  return Line;
}

FramedRecords gpuwmm::parseFramedRecords(std::string_view Text) {
  FramedRecords R;
  size_t Pos = 0;
  while (Pos != Text.size()) {
    const size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string_view::npos)
      break; // Unterminated tail: torn.
    const std::string_view Line = Text.substr(Pos, Nl - Pos);
    uint32_t Crc = 0;
    if (Line.size() < 9 || Line[8] != ':' ||
        !parseCrcHex(Line.substr(0, 8), Crc))
      break; // Malformed framing: torn.
    const std::string_view Payload = Line.substr(9);
    if (crc32(Payload) != Crc)
      break; // Corrupt payload: torn.
    R.Payloads.emplace_back(Payload);
    Pos = Nl + 1;
  }
  R.ValidBytes = Pos;
  R.TornTail = Pos != Text.size();
  return R;
}

bool gpuwmm::readFile(const std::string &Path, std::string &Out,
                      std::string *Err) {
  const int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    setErr(Err, "cannot read '" + Path + "'");
    return false;
  }
  Out.clear();
  char Buf[1 << 16];
  for (;;) {
    const ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      setErr(Err, "cannot read '" + Path + "'");
      ::close(Fd);
      return false;
    }
    if (N == 0)
      break;
    Out.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  return true;
}

bool gpuwmm::atomicWriteFile(const std::string &Path,
                             std::string_view Contents, std::string *Err) {
  const std::string Tmp = Path + ".tmp";
  const int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    setErr(Err, "cannot create '" + Tmp + "'");
    return false;
  }
  if (!writeAll(Fd, Contents, Err, Tmp) || ::fsync(Fd) != 0) {
    if (Err && Err->empty())
      setErr(Err, "cannot fsync '" + Tmp + "'");
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return false;
  }
  ::close(Fd);
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    setErr(Err, "cannot rename '" + Tmp + "' to '" + Path + "'");
    ::unlink(Tmp.c_str());
    return false;
  }
  return fsyncParentDir(Path, Err);
}

RecordLog::~RecordLog() {
  if (Fd >= 0)
    ::close(Fd);
}

RecordLog::RecordLog(RecordLog &&O) noexcept
    : Fd(O.Fd), LogPath(std::move(O.LogPath)) {
  O.Fd = -1;
}

RecordLog &RecordLog::operator=(RecordLog &&O) noexcept {
  if (this != &O) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = O.Fd;
    LogPath = std::move(O.LogPath);
    O.Fd = -1;
  }
  return *this;
}

std::optional<RecordLog> RecordLog::createExclusive(const std::string &Path,
                                                    std::string *Err,
                                                    bool *Exists) {
  if (Exists)
    *Exists = false;
  const int Fd =
      ::open(Path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND, 0644);
  if (Fd < 0) {
    if (Exists && errno == EEXIST)
      *Exists = true;
    setErr(Err, "cannot create '" + Path + "'");
    return std::nullopt;
  }
  if (!fsyncParentDir(Path, Err)) {
    ::close(Fd);
    return std::nullopt;
  }
  RecordLog Log;
  Log.Fd = Fd;
  Log.LogPath = Path;
  return Log;
}

bool RecordLog::append(std::string_view Payload, std::string *Err) {
  if (Fd < 0) {
    if (Err)
      *Err = "record log is not open";
    return false;
  }
  const std::string Line = frameRecord(Payload);
  if (!writeAll(Fd, Line, Err, LogPath))
    return false;
  if (::fsync(Fd) != 0) {
    setErr(Err, "cannot fsync '" + LogPath + "'");
    return false;
  }
  return true;
}

std::optional<RecordDir> RecordDir::open(const std::string &Dir,
                                         const Naming &Names,
                                         std::string_view Manifest,
                                         unsigned CrashAfterAppends,
                                         std::string *Err) {
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST) {
    setErr(Err, std::string("cannot create ") + Names.Noun +
                    " directory '" + Dir + "'");
    return std::nullopt;
  }
  RecordDir D;
  D.Directory = Dir;
  D.Prefix = Names.Prefix;
  D.CrashAfterAppends = CrashAfterAppends;
  const std::string Path = Dir + "/manifest.json";
  std::string Existing;
  if (readFile(Path, Existing, nullptr)) {
    // Joining an existing directory: its identity must match this
    // writer's exactly, or records of different runs (or tool versions)
    // would silently mix.
    if (Existing != Manifest) {
      if (Err)
        *Err = "'" + Path + "' describes a different " + Names.Mismatch;
      return std::nullopt;
    }
    D.Existed = true;
  } else if (!atomicWriteFile(Path, Manifest, Err)) {
    return std::nullopt;
  }
  return D;
}

bool RecordDir::append(std::string_view Payload, std::string *Err) {
  // Claim the lowest free log index; O_EXCL arbitrates races between
  // writers sharing the directory.
  for (unsigned I = 0; I != 10000 && !Log.isOpen(); ++I) {
    char Index[16];
    std::snprintf(Index, sizeof(Index), "%04u", I);
    bool Exists = false;
    std::string ClaimErr;
    std::optional<RecordLog> Claimed = RecordLog::createExclusive(
        Directory + "/" + Prefix + "-" + Index + ".jsonl", &ClaimErr,
        &Exists);
    if (Claimed) {
      Log = std::move(*Claimed);
    } else if (!Exists) {
      if (Err)
        *Err = ClaimErr;
      return false;
    }
  }
  if (!Log.isOpen()) {
    if (Err)
      *Err = "no free " + Prefix + "-NNNN.jsonl name in '" + Directory +
             "'";
    return false;
  }
  if (!Log.append(Payload, Err))
    return false;
  // Crash-injection hook: die the hardest way possible (SIGKILL: no
  // destructors, no flushing) right after the Nth durable append. The
  // record is durable; whatever the store does after it (artifacts, later
  // records) is not, which is the window the resume tests prove harmless.
  if (CrashAfterAppends && ++Appends == CrashAfterAppends) {
    std::fprintf(stderr, "'%s': crash hook firing after %u record(s)\n",
                 Log.path().c_str(), Appends);
    ::raise(SIGKILL);
  }
  return true;
}

bool RecordDir::scan(const std::string &Dir, const Naming &Names,
                     std::vector<ScannedLog> &Logs,
                     std::vector<std::string> &Warnings, std::string *Err) {
  Logs.clear();
  const std::string Head = std::string(Names.Prefix) + "-";
  std::vector<std::string> Paths;
  std::error_code Ec;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec)) {
    const std::string Name = Entry.path().filename().string();
    if (Name.rfind(Head, 0) == 0 && Name.size() > Head.size() + 6 &&
        Name.compare(Name.size() - 6, 6, ".jsonl") == 0)
      Paths.push_back(Entry.path().string());
  }
  if (Ec) {
    if (Err)
      *Err = "cannot list '" + Dir + "': " + Ec.message();
    return false;
  }
  std::sort(Paths.begin(), Paths.end());
  for (std::string &Path : Paths) {
    std::string Text;
    if (!readFile(Path, Text, Err))
      return false;
    Logs.push_back({std::move(Path), parseFramedRecords(Text)});
    const FramedRecords &Records = Logs.back().Records;
    if (Records.TornTail)
      Warnings.push_back("'" + Logs.back().Path +
                         "': torn tail record truncated at byte " +
                         std::to_string(Records.ValidBytes) +
                         " (crash mid-append; the " + Names.Unit +
                         " will be re-run on --resume)");
  }
  return true;
}

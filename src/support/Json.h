//===- support/Json.h - Minimal JSON reader --------------------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dependency-free JSON reader for the campaign fabric's own
/// artifacts (shard records and manifests; DESIGN.md Sec. 16). The
/// writers in this codebase emit the values, the readers here parse them
/// back — round-tripping our own output, not arbitrary JSON, is the
/// contract. Numbers keep their raw text so 64-bit seeds survive without
/// a lossy trip through double.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SUPPORT_JSON_H
#define GPUWMM_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpuwmm {

/// One parsed JSON value. Objects preserve member order.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }

  /// Valid for Kind::Bool only.
  bool asBool() const { return BoolVal; }

  /// Valid for Kind::Number: the untouched numeric text.
  const std::string &numberText() const { return Text; }
  /// Number as uint64 (seeds); asserts the kind, saturates never — the
  /// writers only emit values that fit.
  uint64_t asUInt64() const;
  int64_t asInt64() const;

  /// Valid for Kind::String: the unescaped character data.
  const std::string &asString() const { return Text; }

  /// Valid for Kind::Array.
  const std::vector<JsonValue> &items() const { return Items; }

  /// Valid for Kind::Object: members in source order.
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }
  /// Object member by key; null when absent (or not an object).
  const JsonValue *find(std::string_view Key) const;

private:
  friend class JsonParser;
  Kind K = Kind::Null;
  bool BoolVal = false;
  std::string Text; ///< Number text or unescaped string data.
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;
};

/// Parses \p Text as one JSON document (trailing whitespace allowed,
/// trailing garbage rejected). nullopt + \p Err on malformed input.
std::optional<JsonValue> parseJson(std::string_view Text, std::string *Err);

/// Member \p Key of object \p Obj when present with kind \p K; null +
/// \p Err naming the key otherwise (the record parsers' field access).
const JsonValue *jsonField(const JsonValue &Obj, const char *Key,
                           JsonValue::Kind K, std::string *Err);

/// Member \p Key of \p Obj as a count: a plain non-negative integer (no
/// sign, fraction or exponent) that fits unsigned. False + \p Err naming
/// the key otherwise.
bool jsonCount(const JsonValue &Obj, const char *Key, unsigned &Out,
               std::string *Err);

/// Escapes \p S for embedding in a JSON string literal (quotes, backslash
/// and control characters; the writers' names never need more).
std::string jsonEscape(std::string_view S);

} // namespace gpuwmm

#endif // GPUWMM_SUPPORT_JSON_H

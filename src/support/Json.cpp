//===- support/Json.cpp - Minimal JSON reader --------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace gpuwmm;

uint64_t JsonValue::asUInt64() const {
  return std::strtoull(Text.c_str(), nullptr, 10);
}

int64_t JsonValue::asInt64() const {
  return std::strtoll(Text.c_str(), nullptr, 10);
}

const JsonValue *JsonValue::find(std::string_view Key) const {
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

namespace gpuwmm {

/// Recursive-descent parser over a string_view with a depth cap (our
/// artifacts nest two levels; 64 is head-room, not a limit anyone hits).
class JsonParser {
public:
  JsonParser(std::string_view Text, std::string *Err)
      : Text(Text), Err(Err) {}

  std::optional<JsonValue> parse() {
    JsonValue V;
    if (!parseValue(V, 0))
      return std::nullopt;
    skipWs();
    if (Pos != Text.size()) {
      fail("trailing characters after JSON document");
      return std::nullopt;
    }
    return V;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  void fail(const std::string &What) {
    if (Err && Err->empty())
      *Err = What + " at offset " + std::to_string(Pos);
  }

  void skipWs() {
    while (Pos != Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool expect(char C) {
    if (Pos == Text.size() || Text[Pos] != C) {
      fail(std::string("expected '") + C + "'");
      return false;
    }
    ++Pos;
    return true;
  }

  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth) {
      fail("JSON nested too deeply");
      return false;
    }
    skipWs();
    if (Pos == Text.size()) {
      fail("unexpected end of input");
      return false;
    }
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.Text);
    case 't':
    case 'f':
      return parseKeyword(Out);
    case 'n':
      return parseKeyword(Out);
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JsonValue &Out, unsigned Depth) {
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos != Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      std::string Key;
      if (Pos == Text.size() || Text[Pos] != '"') {
        fail("expected object key string");
        return false;
      }
      if (!parseString(Key))
        return false;
      skipWs();
      if (!expect(':'))
        return false;
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.Members.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (Pos != Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return expect('}');
    }
  }

  bool parseArray(JsonValue &Out, unsigned Depth) {
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (Pos != Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.Items.push_back(std::move(V));
      skipWs();
      if (Pos != Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return expect(']');
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (Pos != Text.size()) {
      const char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C == '\\') {
        if (Pos + 1 == Text.size()) {
          fail("unterminated escape");
          return false;
        }
        const char E = Text[Pos + 1];
        Pos += 2;
        switch (E) {
        case '"':  Out += '"';  break;
        case '\\': Out += '\\'; break;
        case '/':  Out += '/';  break;
        case 'b':  Out += '\b'; break;
        case 'f':  Out += '\f'; break;
        case 'n':  Out += '\n'; break;
        case 'r':  Out += '\r'; break;
        case 't':  Out += '\t'; break;
        case 'u': {
          if (Pos + 4 > Text.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned V = 0;
          for (unsigned I = 0; I != 4; ++I) {
            const char H = Text[Pos + I];
            V <<= 4;
            if (H >= '0' && H <= '9')
              V |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              V |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              V |= static_cast<unsigned>(H - 'A' + 10);
            else {
              fail("bad \\u escape");
              return false;
            }
          }
          Pos += 4;
          // Our writers only escape control characters; decode the
          // BMP code point as UTF-8.
          if (V < 0x80) {
            Out += static_cast<char>(V);
          } else if (V < 0x800) {
            Out += static_cast<char>(0xC0 | (V >> 6));
            Out += static_cast<char>(0x80 | (V & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (V >> 12));
            Out += static_cast<char>(0x80 | ((V >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (V & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
          return false;
        }
        continue;
      }
      Out += C;
      ++Pos;
    }
    fail("unterminated string");
    return false;
  }

  bool parseKeyword(JsonValue &Out) {
    const std::string_view Rest = Text.substr(Pos);
    if (Rest.substr(0, 4) == "true") {
      Out.K = JsonValue::Kind::Bool;
      Out.BoolVal = true;
      Pos += 4;
      return true;
    }
    if (Rest.substr(0, 5) == "false") {
      Out.K = JsonValue::Kind::Bool;
      Out.BoolVal = false;
      Pos += 5;
      return true;
    }
    if (Rest.substr(0, 4) == "null") {
      Out.K = JsonValue::Kind::Null;
      Pos += 4;
      return true;
    }
    fail("unknown keyword");
    return false;
  }

  bool parseNumber(JsonValue &Out) {
    const size_t Start = Pos;
    if (Pos != Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos != Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start ||
        !std::isdigit(static_cast<unsigned char>(Text[Start == Pos ? Start
                                                      : Pos - 1]))) {
      fail("malformed number");
      return false;
    }
    // Must start with a digit after the optional sign.
    const size_t DigitAt = Text[Start] == '-' ? Start + 1 : Start;
    if (DigitAt >= Pos ||
        !std::isdigit(static_cast<unsigned char>(Text[DigitAt]))) {
      fail("malformed number");
      return false;
    }
    Out.K = JsonValue::Kind::Number;
    Out.Text.assign(Text.substr(Start, Pos - Start));
    return true;
  }

  std::string_view Text;
  std::string *Err;
  size_t Pos = 0;
};

} // namespace gpuwmm

std::optional<JsonValue> gpuwmm::parseJson(std::string_view Text,
                                           std::string *Err) {
  if (Err)
    Err->clear();
  return JsonParser(Text, Err).parse();
}

const JsonValue *gpuwmm::jsonField(const JsonValue &Obj, const char *Key,
                                   JsonValue::Kind K, std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (V && V->kind() == K)
    return V;
  if (Err)
    *Err = std::string("field '") + Key + "' is missing or mistyped";
  return nullptr;
}

bool gpuwmm::jsonCount(const JsonValue &Obj, const char *Key, unsigned &Out,
                       std::string *Err) {
  const JsonValue *V = jsonField(Obj, Key, JsonValue::Kind::Number, Err);
  if (!V)
    return false;
  if (V->numberText().find_first_not_of("0123456789") != std::string::npos ||
      V->asUInt64() > std::numeric_limits<unsigned>::max()) {
    if (Err)
      *Err = std::string("field '") + Key + "' is not an unsigned integer";
    return false;
  }
  Out = static_cast<unsigned>(V->asUInt64());
  return true;
}

std::string gpuwmm::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':  Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n";  break;
    case '\r': Out += "\\r";  break;
    case '\t': Out += "\\t";  break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

// A small JSON parser for the results documents the primary emits
// (post-mortem analysis reads them back, like the artifact's csv-results
// script). Supports objects, arrays, strings with escapes, numbers,
// booleans and null.
#ifndef SRC_CONFIG_JSON_H_
#define SRC_CONFIG_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace diablo {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject, ordered

  bool IsNumber() const { return type == Type::kNumber; }
  bool IsString() const { return type == Type::kString; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsObject() const { return type == Type::kObject; }

  // Object lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  // Convenience accessors with fallbacks.
  double GetNumber(std::string_view key, double fallback) const;
  std::string GetString(std::string_view key, std::string_view fallback) const;
};

struct JsonResult {
  bool ok = false;
  std::string error;  // with character offset
  JsonValue value;
};

JsonResult ParseJson(std::string_view text);

// Appends `s` to *out as a quoted JSON string (RFC 8259): quotes and
// backslashes escaped, newline and tab by name, every other byte below 0x20
// as \u00XX. Bytes from 0x20 up pass through unchanged.
void AppendJsonString(std::string_view s, std::string* out);

}  // namespace diablo

#endif  // SRC_CONFIG_JSON_H_

// A YAML-subset parser covering diablo's benchmark configuration files (§4):
// block maps and sequences by indentation, compact "- key: value" items,
// inline flow lists/maps, quoted scalars, comments, anchors (&name / *name)
// and application tags (!invoke, !location, !endpoint, !account, !contract).
#ifndef SRC_CONFIG_YAML_H_
#define SRC_CONFIG_YAML_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace diablo {

class YamlNode {
 public:
  enum class Type { kNull, kScalar, kList, kMap };

  Type type = Type::kNull;
  int line = 0;        // 1-based line of its key or list item (the root's: its
                       // first line); 0 = unknown
  std::string tag;     // without the '!', empty when untagged
  std::string scalar;  // valid when kScalar
  std::vector<YamlNode> items;                             // kList
  std::vector<std::pair<std::string, YamlNode>> entries;   // kMap, in order

  bool IsNull() const { return type == Type::kNull; }
  bool IsScalar() const { return type == Type::kScalar; }
  bool IsList() const { return type == Type::kList; }
  bool IsMap() const { return type == Type::kMap; }

  // Map lookup; nullptr when absent or not a map.
  const YamlNode* Find(std::string_view key) const;

  // Scalar conversions; return false when the node is not a scalar of the
  // requested shape.
  bool AsInt64(int64_t* out) const;
  bool AsDouble(double* out) const;

  // Convenience: child scalar with default.
  int64_t GetInt(std::string_view key, int64_t fallback) const;
  std::string GetString(std::string_view key, std::string_view fallback) const;
};

struct YamlResult {
  bool ok = false;
  std::string error;  // "line N: message"
  YamlNode root;
};

YamlResult ParseYaml(std::string_view text);

}  // namespace diablo

#endif  // SRC_CONFIG_YAML_H_

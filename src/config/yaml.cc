#include "src/config/yaml.h"

#include <map>
#include <stdexcept>

#include "src/support/strings.h"

namespace diablo {

const YamlNode* YamlNode::Find(std::string_view key) const {
  for (const auto& [k, v] : entries) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

bool YamlNode::AsInt64(int64_t* out) const {
  return IsScalar() && ParseInt64(scalar, out);
}

bool YamlNode::AsDouble(double* out) const {
  return IsScalar() && ParseDouble(scalar, out);
}

int64_t YamlNode::GetInt(std::string_view key, int64_t fallback) const {
  const YamlNode* child = Find(key);
  int64_t value = 0;
  return child != nullptr && child->AsInt64(&value) ? value : fallback;
}

std::string YamlNode::GetString(std::string_view key, std::string_view fallback) const {
  const YamlNode* child = Find(key);
  return child != nullptr && child->IsScalar() ? child->scalar : std::string(fallback);
}

namespace {

struct Line {
  int indent;
  std::string content;  // comment-stripped, trailing-trimmed
  int number;           // 1-based source line
};

class Parser {
 public:
  explicit Parser(std::string_view text) { Preprocess(text); }

  YamlResult Run() {
    YamlResult result;
    try {
      size_t pos = 0;
      result.root = ParseBlock(pos, /*min_indent=*/0);
      if (lines_.empty()) {
        result.root.line = 1;  // so a reader can name where a key is missing
      }
      if (pos < lines_.size()) {
        Fail(lines_[pos].number, "unexpected content (bad indentation?)");
      }
      result.ok = true;
    } catch (const std::runtime_error& error) {
      result.error = error.what();
    }
    return result;
  }

 private:
  [[noreturn]] void Fail(int line, const std::string& message) {
    throw std::runtime_error(StrFormat("%s (line %d)", message.c_str(), line));
  }

  // Find returns a key's first entry, so a repeated key's later values
  // would be dropped silently.
  void RejectRepeatedKey(const YamlNode& map, const std::string& key, int line) {
    if (map.Find(key) != nullptr) {
      Fail(line, "repeated key '" + key + "'");
    }
  }

  void Preprocess(std::string_view text) {
    int number = 0;
    for (const std::string& raw : Split(text, '\n')) {
      ++number;
      // Strip comments outside quotes.
      std::string stripped;
      bool in_single = false;
      bool in_double = false;
      for (const char c : raw) {
        if (c == '\'' && !in_double) {
          in_single = !in_single;
        } else if (c == '"' && !in_single) {
          in_double = !in_double;
        } else if (c == '#' && !in_single && !in_double) {
          break;
        }
        stripped.push_back(c);
      }
      int indent = 0;
      while (indent < static_cast<int>(stripped.size()) &&
             stripped[static_cast<size_t>(indent)] == ' ') {
        ++indent;
      }
      const std::string content = Trim(stripped);
      if (content.empty()) {
        continue;
      }
      lines_.push_back(Line{indent, content, number});
    }
  }

  // Parses the block starting at lines_[pos] whose indent is >= min_indent;
  // consumes every line belonging to it.
  YamlNode ParseBlock(size_t& pos, int min_indent) {
    if (pos >= lines_.size() || lines_[pos].indent < min_indent) {
      return YamlNode{};  // null
    }
    const int indent = lines_[pos].indent;
    if (StartsWith(lines_[pos].content, "- ") || lines_[pos].content == "-") {
      return ParseSequence(pos, indent);
    }
    return ParseMapping(pos, indent);
  }

  YamlNode ParseSequence(size_t& pos, int indent) {
    YamlNode node;
    node.type = YamlNode::Type::kList;
    node.line = lines_[pos].number;
    while (pos < lines_.size() && lines_[pos].indent == indent &&
           (StartsWith(lines_[pos].content, "- ") || lines_[pos].content == "-")) {
      const Line& line = lines_[pos];
      std::string rest =
          line.content == "-" ? std::string() : Trim(line.content.substr(2));
      if (rest.empty()) {
        ++pos;
        node.items.push_back(ParseBlock(pos, indent + 1));
        node.items.back().line = line.number;
        continue;
      }
      // Compact mapping item: "- key: value" opens a map whose keys are
      // indented past the dash.
      if (LooksLikeMapEntry(rest)) {
        const int item_indent = indent + 2;
        lines_[pos] = Line{item_indent, rest, line.number};
        node.items.push_back(ParseMapping(pos, item_indent));
        continue;
      }
      ++pos;
      node.items.push_back(ParseValue(rest, pos, indent + 1, line.number));
    }
    return node;
  }

  YamlNode ParseMapping(size_t& pos, int indent) {
    YamlNode node;
    node.type = YamlNode::Type::kMap;
    node.line = lines_[pos].number;
    while (pos < lines_.size() && lines_[pos].indent == indent &&
           !StartsWith(lines_[pos].content, "- ")) {
      const Line& line = lines_[pos];
      const size_t colon = FindKeyColon(line.content);
      if (colon == std::string::npos) {
        Fail(line.number, "expected 'key: value'");
      }
      std::string key = Trim(line.content.substr(0, colon));
      if (key.size() >= 2 && (key.front() == '"' || key.front() == '\'') &&
          key.back() == key.front()) {
        key = key.substr(1, key.size() - 2);
      }
      const std::string rest = Trim(line.content.substr(colon + 1));
      RejectRepeatedKey(node, key, line.number);
      ++pos;
      node.entries.emplace_back(key, ParseValue(rest, pos, indent + 1, line.number));
    }
    return node;
  }

  // Parses an in-line value; when it is empty (or only anchor/tag prefixes),
  // the value continues as a nested block at `child_indent`.
  YamlNode ParseValue(std::string rest, size_t& pos, int child_indent, int line_no) {
    std::string anchor;
    std::string tag;
    // Prefixes: &anchor and/or !tag, in either order (YAML allows both).
    while (true) {
      if (StartsWith(rest, "&")) {
        const size_t end = rest.find_first_of(" \t");
        anchor = rest.substr(1, end == std::string::npos ? end : end - 1);
        rest = end == std::string::npos ? std::string() : Trim(rest.substr(end));
        continue;
      }
      if (StartsWith(rest, "!")) {
        const size_t end = rest.find_first_of(" \t");
        tag = rest.substr(1, end == std::string::npos ? end : end - 1);
        rest = end == std::string::npos ? std::string() : Trim(rest.substr(end));
        continue;
      }
      break;
    }

    YamlNode value;
    if (rest.empty()) {
      value = ParseBlock(pos, child_indent);
    } else if (StartsWith(rest, "*")) {
      const std::string name = Trim(rest.substr(1));
      const auto it = anchors_.find(name);
      if (it == anchors_.end()) {
        Fail(line_no, "unknown alias '*" + name + "'");
      }
      value = it->second;
    } else if (rest.front() == '[' || rest.front() == '{') {
      size_t cursor = 0;
      value = ParseFlow(rest, cursor, line_no);
      if (cursor != rest.size()) {
        Fail(line_no, "trailing characters after flow value");
      }
    } else {
      value.type = YamlNode::Type::kScalar;
      value.scalar = Unquote(rest);
    }

    // The line of the key or list item the value belongs to, so that an
    // alias or a nested block names where it is used.
    value.line = line_no;
    if (!tag.empty()) {
      value.tag = tag;
    }
    if (!anchor.empty()) {
      anchors_[anchor] = value;
    }
    return value;
  }

  // Parses a flow collection or scalar starting at text[cursor].
  YamlNode ParseFlow(const std::string& text, size_t& cursor, int line_no) {
    SkipSpaces(text, cursor);
    if (cursor >= text.size()) {
      Fail(line_no, "unterminated flow value");
    }
    YamlNode node;
    node.line = line_no;
    if (text[cursor] == '[') {
      node.type = YamlNode::Type::kList;
      ++cursor;
      SkipSpaces(text, cursor);
      while (cursor < text.size() && text[cursor] != ']') {
        const size_t before = cursor;
        node.items.push_back(ParseFlowValue(text, cursor, line_no));
        SkipSpaces(text, cursor);
        if (cursor < text.size() && text[cursor] == ',') {
          ++cursor;
          SkipSpaces(text, cursor);
        } else if (cursor == before) {
          // No progress: a stray '}' or similar would loop forever.
          Fail(line_no, "malformed flow sequence");
        }
      }
      if (cursor >= text.size()) {
        Fail(line_no, "missing ']'");
      }
      ++cursor;
      return node;
    }
    if (text[cursor] == '{') {
      node.type = YamlNode::Type::kMap;
      ++cursor;
      SkipSpaces(text, cursor);
      while (cursor < text.size() && text[cursor] != '}') {
        const size_t before = cursor;
        const size_t colon = text.find(':', cursor);
        if (colon == std::string::npos) {
          Fail(line_no, "missing ':' in flow map");
        }
        const std::string key = Unquote(Trim(text.substr(cursor, colon - cursor)));
        RejectRepeatedKey(node, key, line_no);
        cursor = colon + 1;
        node.entries.emplace_back(key, ParseFlowValue(text, cursor, line_no));
        SkipSpaces(text, cursor);
        if (cursor < text.size() && text[cursor] == ',') {
          ++cursor;
          SkipSpaces(text, cursor);
        } else if (cursor <= before) {
          Fail(line_no, "malformed flow mapping");
        }
      }
      if (cursor >= text.size()) {
        Fail(line_no, "missing '}'");
      }
      ++cursor;
      return node;
    }
    YamlNode scalar = ParseFlowScalar(text, cursor);
    scalar.line = line_no;
    return scalar;
  }

  YamlNode ParseFlowValue(const std::string& text, size_t& cursor, int line_no) {
    SkipSpaces(text, cursor);
    // Tags and aliases inside flow collections.
    if (cursor < text.size() && text[cursor] == '!') {
      const size_t end = text.find_first_of(" \t", cursor);
      if (end == std::string::npos) {
        Fail(line_no, "tag without value in flow collection");
      }
      const std::string tag = text.substr(cursor + 1, end - cursor - 1);
      cursor = end;
      YamlNode value = ParseFlowValue(text, cursor, line_no);
      value.tag = tag;
      return value;
    }
    if (cursor < text.size() && text[cursor] == '*') {
      size_t end = cursor + 1;
      while (end < text.size() && text[end] != ',' && text[end] != '}' &&
             text[end] != ']' && text[end] != ' ') {
        ++end;
      }
      const std::string name = text.substr(cursor + 1, end - cursor - 1);
      cursor = end;
      const auto it = anchors_.find(name);
      if (it == anchors_.end()) {
        Fail(line_no, "unknown alias '*" + name + "'");
      }
      YamlNode alias = it->second;
      alias.line = line_no;
      return alias;
    }
    if (cursor < text.size() && (text[cursor] == '[' || text[cursor] == '{')) {
      return ParseFlow(text, cursor, line_no);
    }
    YamlNode scalar = ParseFlowScalar(text, cursor);
    scalar.line = line_no;
    return scalar;
  }

  YamlNode ParseFlowScalar(const std::string& text, size_t& cursor) {
    YamlNode node;
    node.type = YamlNode::Type::kScalar;
    SkipSpaces(text, cursor);
    if (cursor < text.size() && (text[cursor] == '"' || text[cursor] == '\'')) {
      const char quote = text[cursor];
      const size_t end = text.find(quote, cursor + 1);
      node.scalar = text.substr(cursor + 1, end - cursor - 1);
      cursor = end == std::string::npos ? text.size() : end + 1;
      return node;
    }
    size_t end = cursor;
    while (end < text.size() && text[end] != ',' && text[end] != '}' &&
           text[end] != ']') {
      ++end;
    }
    node.scalar = Trim(text.substr(cursor, end - cursor));
    cursor = end;
    return node;
  }

  static void SkipSpaces(const std::string& text, size_t& cursor) {
    while (cursor < text.size() &&
           (text[cursor] == ' ' || text[cursor] == '\t')) {
      ++cursor;
    }
  }

  static std::string Unquote(const std::string& s) {
    if (s.size() >= 2 && (s.front() == '"' || s.front() == '\'') &&
        s.back() == s.front()) {
      return s.substr(1, s.size() - 2);
    }
    return s;
  }

  // A compact sequence item opens a mapping when it contains a top-level
  // "key:" outside quotes/flow brackets.
  static bool LooksLikeMapEntry(const std::string& text) {
    return FindKeyColon(text) != std::string::npos;
  }

  // Position of the colon terminating a mapping key, or npos.
  static size_t FindKeyColon(const std::string& text) {
    bool in_single = false;
    bool in_double = false;
    int depth = 0;
    for (size_t i = 0; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '\'' && !in_double) {
        in_single = !in_single;
      } else if (c == '"' && !in_single) {
        in_double = !in_double;
      } else if (!in_single && !in_double) {
        if (c == '[' || c == '{') {
          ++depth;
        } else if (c == ']' || c == '}') {
          --depth;
        } else if (c == ':' && depth == 0 &&
                   (i + 1 == text.size() || text[i + 1] == ' ')) {
          return i;
        }
      }
    }
    return std::string::npos;
  }

  std::vector<Line> lines_;
  std::map<std::string, YamlNode> anchors_;
};

}  // namespace

YamlResult ParseYaml(std::string_view text) { return Parser(text).Run(); }

}  // namespace diablo

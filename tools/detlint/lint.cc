#include "tools/detlint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace diablo::detlint {
namespace {

struct Token {
  std::string text;
  int line = 0;
};

struct Allow {
  std::string rule;
  std::string reason;
};

// Per-line suppressions collected while lexing; standalone comment lines are
// re-attached to the next code line after lexing.
struct LexOutput {
  std::vector<Token> tokens;
  std::map<int, std::vector<Allow>> allows;       // line -> allows
  std::vector<std::pair<int, Allow>> standalone;  // comment line, allow
  std::vector<Finding> comment_findings;          // malformed allow()
};

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Rule ids an allow() may name: the rules themselves plus the `all`/`*`
// wildcards. Anything else suppresses nothing and is reported as SUP, so a
// stale allow() for a retired rule cannot linger unnoticed.
const std::set<std::string> kSuppressibleRules = {"D1", "D2", "D3", "D4",
                                                  "D5", "all", "*"};

// Parses every allow(RULE, reason) suppression directive in a comment.
void ParseAllows(const std::string& comment, int line, bool standalone,
                 const std::string& file, LexOutput* out) {
  auto strip = [](std::string& s) {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.erase(s.begin());
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.pop_back();
  };
  size_t pos = 0;
  while ((pos = comment.find("detlint:", pos)) != std::string::npos) {
    pos += 8;
    size_t open = comment.find("allow(", pos);
    if (open == std::string::npos) {
      break;
    }
    open += 6;
    const size_t close = comment.find(')', open);
    if (close == std::string::npos) {
      break;
    }
    const std::string body = comment.substr(open, close - open);
    const size_t comma = body.find(',');
    std::string rule = body.substr(0, comma == std::string::npos ? body.size() : comma);
    std::string reason =
        comma == std::string::npos ? std::string() : body.substr(comma + 1);
    strip(rule);
    strip(reason);
    if (reason.empty()) {
      out->comment_findings.push_back(Finding{
          file, line, "SUP", "suppression allow(" + rule + ") carries no reason",
          "write `// detlint: allow(" + rule + ", <why this site is deterministic>)`",
          false, {}});
    } else if (kSuppressibleRules.count(rule) == 0) {
      out->comment_findings.push_back(Finding{
          file, line, "SUP", "suppression allow(" + rule + ") names no detlint rule",
          "detlint has rules D1-D5; delete the stale allow() or correct the rule id",
          false, {}});
    } else if (standalone) {
      out->standalone.emplace_back(line, Allow{rule, reason});
    } else {
      out->allows[line].push_back(Allow{rule, reason});
    }
    pos = close;
  }
}

// Encoding prefixes that can precede a raw string literal. The lexer's
// identifier branch would otherwise swallow `u8R` and then mis-lex the
// remainder as an ordinary string that ends at the first embedded quote,
// leaking raw-string contents into the token stream (phantom findings) and
// desyncing quote state (swallowed suppressions).
bool IsRawStringPrefix(const std::string& ident) {
  return ident == "R" || ident == "u8R" || ident == "uR" || ident == "UR" ||
         ident == "LR";
}

// Lexes `source` into identifier / number / operator tokens, stripping
// comments, string and character literals, and preprocessor lines. Multi-char
// operators are combined only where a rule needs them (:: -> += -=).
LexOutput Lex(const std::string& file, const std::string& source) {
  LexOutput out;
  const size_t n = source.size();
  size_t i = 0;
  int line = 1;
  bool line_has_code = false;
  auto newline = [&] {
    ++line;
    line_has_code = false;
  };
  // Consumes a raw string literal whose opening `"` sits at `quote`; returns
  // false (consuming nothing) if no valid delimiter/open-paren follows, in
  // which case the caller falls back to ordinary string lexing. Detlint
  // directives inside raw strings are data, not directives, so ParseAllows
  // is never called on the skipped bytes.
  auto lex_raw_string = [&](size_t quote) -> bool {
    size_t p = quote + 1;
    std::string delim;
    // [lex.string]: the delimiter is at most 16 chars and cannot contain
    // spaces, parens, or backslashes.
    while (p < n && source[p] != '(' && delim.size() <= 16) {
      const char d = source[p];
      if (d == ')' || d == '"' || d == '\\' || d == '\n' ||
          std::isspace(static_cast<unsigned char>(d))) {
        return false;
      }
      delim += d;
      ++p;
    }
    if (p >= n || source[p] != '(' || delim.size() > 16) {
      return false;
    }
    const std::string closer = ")" + delim + "\"";
    const size_t end = source.find(closer, p);
    // Count newlines inside the raw string so later line numbers stay true.
    const size_t stop = end == std::string::npos ? n : end + closer.size();
    for (size_t q = quote; q < stop; ++q) {
      if (source[q] == '\n') {
        newline();
      }
    }
    line_has_code = true;
    i = stop;
    return true;
  };
  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: skip the logical line (with continuations).
    if (c == '#' && !line_has_code) {
      while (i < n && source[i] != '\n') {
        if (source[i] == '\\' && i + 1 < n && source[i + 1] == '\n') {
          newline();
          i += 2;
          continue;
        }
        ++i;
      }
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      const size_t start = i + 2;
      size_t end = start;
      while (end < n && source[end] != '\n') {
        ++end;
      }
      ParseAllows(source.substr(start, end - start), line, !line_has_code, file, &out);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      const int comment_line = line;
      const bool standalone = !line_has_code;
      const size_t start = i + 2;
      size_t end = start;
      while (end + 1 < n && !(source[end] == '*' && source[end + 1] == '/')) {
        if (source[end] == '\n') {
          newline();
        }
        ++end;
      }
      ParseAllows(source.substr(start, end - start), comment_line, standalone, file, &out);
      i = end + 2 > n ? n : end + 2;
      continue;
    }
    // Identifier — including raw-string encoding prefixes (R"..", u8R"..",
    // uR"..", UR"..", LR".."), which must divert to the raw-string skipper
    // before the identifier is emitted as a token.
    if (IsIdentStart(c)) {
      size_t end = i + 1;
      while (end < n && IsIdentChar(source[end])) {
        ++end;
      }
      std::string ident = source.substr(i, end - i);
      if (end < n && source[end] == '"' && IsRawStringPrefix(ident) &&
          lex_raw_string(end)) {
        continue;
      }
      line_has_code = true;
      out.tokens.push_back(Token{std::move(ident), line});
      i = end;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      // A ' between alphanumerics is a C++14 digit separator, handled by the
      // number lexer below; here a ' always opens a char literal because the
      // preceding token boundary was non-alphanumeric.
      const char quote = c;
      ++i;
      while (i < n && source[i] != quote) {
        if (source[i] == '\\' && i + 1 < n) {
          ++i;
        }
        if (source[i] == '\n') {
          newline();  // unterminated literal; keep line numbers sane
        }
        ++i;
      }
      ++i;
      line_has_code = true;
      continue;
    }
    line_has_code = true;
    // Number (consumes digit separators and exponent signs).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t end = i + 1;
      while (end < n &&
             (IsIdentChar(source[end]) || source[end] == '.' || source[end] == '\'' ||
              ((source[end] == '+' || source[end] == '-') &&
               (source[end - 1] == 'e' || source[end - 1] == 'E' ||
                source[end - 1] == 'p' || source[end - 1] == 'P')))) {
        ++end;
      }
      out.tokens.push_back(Token{source.substr(i, end - i), line});
      i = end;
      continue;
    }
    // Operators; combine the few multi-char ones the rules look at.
    if (i + 1 < n) {
      const char d = source[i + 1];
      if ((c == ':' && d == ':') || (c == '-' && d == '>') || (c == '+' && d == '=') ||
          (c == '-' && d == '=')) {
        out.tokens.push_back(Token{std::string{c, d}, line});
        i += 2;
        continue;
      }
    }
    out.tokens.push_back(Token{std::string(1, c), line});
    ++i;
  }
  return out;
}

const std::set<std::string> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
const std::set<std::string> kAssociativeContainers = {
    "map", "set", "multimap", "multiset", "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset", "priority_queue"};
// Bare identifier hits: any appearance outside a comment/string is a finding.
const std::set<std::string> kClockIdentifiers = {
    "random_device", "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday", "timespec_get", "localtime", "localtime_r", "mktime"};
// Call-position hits: only `name(` in expression position is a finding, so
// members and locals that happen to share the name stay quiet.
const std::set<std::string> kClockCalls = {"rand", "srand", "time", "clock"};
const std::set<std::string> kPointerCastTargets = {"uintptr_t", "intptr_t", "size_t",
                                                   "uint64_t"};
// Accessors returning an Rng& that is itself Fork-derived per component:
// ChainContext::rng() is forked from the simulation root at construction, so
// engines drawing through `ctx->rng()` / `ctx_->rng()` stay on a private
// per-chain stream.
const std::set<std::string> kForkedRngReceivers = {"ctx", "ctx_"};

class Linter {
 public:
  Linter(std::string file, LexOutput lex)
      : file_(std::move(file)), lex_(std::move(lex)), tokens_(lex_.tokens) {}

  // Collects the findings (D1-D5 + malformed suppressions) in line order,
  // with suppressions applied.
  LintResult Run() {
    AttachStandaloneAllows();
    CollectDeclarations();
    Scan();
    for (Finding& f : lex_.comment_findings) {
      findings_.push_back(std::move(f));
    }
    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const Finding& a, const Finding& b) { return a.line < b.line; });
    ApplySuppressions();
    LintResult result;
    result.findings = std::move(findings_);
    return result;
  }

 private:
  const Token& Tok(size_t i) const {
    static const Token kEnd{"", 0};
    return i < tokens_.size() ? tokens_[i] : kEnd;
  }

  // A suppression comment standing on its own line suppresses the next line
  // that carries code.
  void AttachStandaloneAllows() {
    for (const auto& [comment_line, allow] : lex_.standalone) {
      int target = 0;
      for (const Token& t : tokens_) {
        if (t.line > comment_line) {
          target = t.line;
          break;
        }
      }
      if (target != 0) {
        lex_.allows[target].push_back(allow);
      }
      // Also cover the comment's own line: a same-line use inside a block
      // comment resolves identically either way.
      lex_.allows[comment_line].push_back(allow);
    }
  }

  // Skips a balanced <...> starting at the `<` token index; returns the index
  // one past the matching `>`, and the token range of the first template
  // argument. `>` and `<` arrive as single-char tokens, so nested closers are
  // never fused into `>>`.
  size_t SkipTemplateArgs(size_t open, size_t* first_arg_begin, size_t* first_arg_end) {
    size_t depth = 0;
    *first_arg_begin = open + 1;
    *first_arg_end = 0;
    for (size_t i = open; i < tokens_.size(); ++i) {
      const std::string& t = tokens_[i].text;
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        --depth;
        if (depth == 0) {
          if (*first_arg_end == 0) {
            *first_arg_end = i;
          }
          return i + 1;
        }
      } else if (t == "(") {
        // Not a template argument list after all (operator< in an
        // expression, e.g. `a < b(c)`); bail out.
        return open + 1;
      } else if (t == "," && depth == 1 && *first_arg_end == 0) {
        *first_arg_end = i;
      }
    }
    return tokens_.size();
  }

  // Registers identifiers declared with an unordered container type (for D1
  // and D5) or a float/double type (for D5), and flags pointer-valued keys
  // (D3) while the template arguments are in hand.
  void CollectDeclarations() {
    for (size_t i = 0; i < tokens_.size(); ++i) {
      const std::string& text = tokens_[i].text;
      if (kAssociativeContainers.count(text) != 0 && Tok(i + 1).text == "<") {
        size_t arg_begin = 0;
        size_t arg_end = 0;
        const size_t after = SkipTemplateArgs(i + 1, &arg_begin, &arg_end);
        if (arg_end > arg_begin) {
          if (tokens_[arg_end - 1].text == "*") {
            Report(tokens_[i].line, "D3",
                   "associative container '" + text + "' keyed on a pointer type",
                   "key on a dense id or stable index; pointer values change run to run");
          }
        }
        if (kUnorderedContainers.count(text) != 0) {
          // Declared name: first identifier after the closing '>', skipping
          // cv/ref tokens. Misses aliases and typedefs by design.
          size_t j = after;
          while (Tok(j).text == "const" || Tok(j).text == "&" || Tok(j).text == "*") {
            ++j;
          }
          if (!Tok(j).text.empty() && IsIdentStart(Tok(j).text[0])) {
            unordered_names_.insert(Tok(j).text);
          }
        }
        i = after > i ? after - 1 : i;
        continue;
      }
      if ((text == "double" || text == "float") && !Tok(i + 1).text.empty() &&
          IsIdentStart(Tok(i + 1).text[0]) && Tok(i + 1).text != "const") {
        float_names_.insert(Tok(i + 1).text);
      }
    }
  }

  void Scan() {
    for (size_t i = 0; i < tokens_.size(); ++i) {
      ScanD1D5(i);
      ScanD2(i);
      ScanD3Cast(i);
      ScanD4(i);
    }
  }

  void ScanD1D5(size_t i) {
    // Range-for over an unordered container declared in this file.
    if (tokens_[i].text == "for" && Tok(i + 1).text == "(") {
      size_t depth = 0;
      size_t colon = 0;
      size_t close = 0;
      for (size_t j = i + 1; j < tokens_.size(); ++j) {
        const std::string& t = tokens_[j].text;
        if (t == "(") {
          ++depth;
        } else if (t == ")") {
          if (--depth == 0) {
            close = j;
            break;
          }
        } else if (t == ":" && depth == 1 && colon == 0) {
          colon = j;
        }
      }
      if (colon == 0 || close == 0) {
        return;
      }
      bool unordered = false;
      for (size_t j = colon + 1; j < close; ++j) {
        if (unordered_names_.count(tokens_[j].text) != 0) {
          unordered = true;
          break;
        }
      }
      if (!unordered) {
        return;
      }
      Report(tokens_[i].line, "D1",
             "range-for over an unordered container",
             "iterate a sorted copy of the keys, or use a vector/flat table with a "
             "deterministic order");
      // D5: float accumulation inside this loop's body.
      size_t body_end = close + 1;
      if (Tok(close + 1).text == "{") {
        size_t brace = 0;
        for (size_t j = close + 1; j < tokens_.size(); ++j) {
          if (tokens_[j].text == "{") {
            ++brace;
          } else if (tokens_[j].text == "}") {
            if (--brace == 0) {
              body_end = j;
              break;
            }
          }
        }
      } else {
        while (body_end < tokens_.size() && tokens_[body_end].text != ";") {
          ++body_end;
        }
      }
      for (size_t j = close + 1; j < body_end; ++j) {
        if ((tokens_[j].text == "+=" || tokens_[j].text == "-=") && j > 0 &&
            float_names_.count(tokens_[j - 1].text) != 0) {
          Report(tokens_[j].line, "D5",
                 "floating-point accumulation inside unordered iteration",
                 "FP addition is not associative; accumulate in a fixed order (sorted "
                 "keys or index order)");
        }
      }
      return;
    }
    // Explicit iterator over an unordered container.
    if ((tokens_[i].text == "begin" || tokens_[i].text == "cbegin") &&
        Tok(i + 1).text == "(" && i >= 2 &&
        (Tok(i - 1).text == "." || Tok(i - 1).text == "->") &&
        unordered_names_.count(Tok(i - 2).text) != 0) {
      Report(tokens_[i].line, "D1",
             "iterator over an unordered container ('" + Tok(i - 2).text + "')",
             "iterate a sorted copy of the keys, or use a vector/flat table with a "
             "deterministic order");
    }
  }

  void ScanD2(size_t i) {
    const std::string& text = tokens_[i].text;
    if (kClockIdentifiers.count(text) != 0) {
      Report(tokens_[i].line, "D2",
             "nondeterministic time/entropy source '" + text + "'",
             "use Simulation::Now() for simulated time or a seeded Rng for entropy; "
             "wall-clock belongs only in the profiling layer");
      return;
    }
    if (kClockCalls.count(text) != 0 && Tok(i + 1).text == "(") {
      // Only expression-position calls: `x.time(...)`, `Foo::time(...)` and
      // declarations `SimTime time(...)` are someone else's `time`.
      const std::string& prev = i > 0 ? tokens_[i - 1].text : std::string();
      if (prev == "." || prev == "->") {
        return;
      }
      if (prev == "::") {
        // std::rand / ::time are the libc entry points; Foo::time is not.
        if (i >= 2 && Tok(i - 2).text != "std" && IsIdentStart(Tok(i - 2).text[0])) {
          return;
        }
      } else if (!prev.empty() &&
                 (IsIdentStart(prev[0]) || prev == ">" || prev == "*" || prev == "&")) {
        return;  // declaration: a type name precedes
      }
      Report(tokens_[i].line, "D2",
             "call to wall-clock/libc entropy function '" + text + "()'",
             "use Simulation::Now() for simulated time or a seeded Rng for entropy; "
             "wall-clock belongs only in the profiling layer");
    }
  }

  void ScanD3Cast(size_t i) {
    if (tokens_[i].text == "reinterpret_cast" && Tok(i + 1).text == "<" &&
        kPointerCastTargets.count(Tok(i + 2).text) != 0) {
      Report(tokens_[i].line, "D3",
             "pointer-to-integer cast (reinterpret_cast<" + Tok(i + 2).text + ">)",
             "an address is not a stable identity; derive keys/orderings from dense "
             "ids instead");
    }
  }

  void ScanD4(size_t i) {
    // x->rng().NextFoo(...) / x.rng().NextFoo(...) / bare rng().NextFoo(...):
    // drawing through an accessor means the draw site cannot prove the stream
    // is private. Fork-derived accessors are allowlisted by receiver name.
    if (tokens_[i].text == "rng" && Tok(i + 1).text == "(" && Tok(i + 2).text == ")" &&
        Tok(i + 3).text == "." && Tok(i + 4).text.compare(0, 4, "Next") == 0) {
      const bool has_receiver =
          i >= 2 && (Tok(i - 1).text == "->" || Tok(i - 1).text == ".");
      const std::string receiver = has_receiver ? Tok(i - 2).text : std::string();
      if (kForkedRngReceivers.count(receiver) != 0) {
        return;
      }
      Report(tokens_[i].line, "D4",
             "direct draw from a shared RNG stream (" +
                 (receiver.empty() ? std::string("this") : receiver) + "->rng()." +
                 Tok(i + 4).text + ")",
             "fork a private stream once at construction (Rng::Fork / "
             "Simulation::ForkRng) and draw from the fork");
      return;
    }
    // A static / thread_local Rng is shared across every caller and thread.
    if ((tokens_[i].text == "static" || tokens_[i].text == "thread_local") &&
        Tok(i + 1).text == "Rng" && !Tok(i + 2).text.empty() &&
        IsIdentStart(Tok(i + 2).text[0])) {
      Report(tokens_[i].line, "D4",
             "shared " + tokens_[i].text + " Rng '" + Tok(i + 2).text + "'",
             "give each component its own Fork()-derived stream; shared streams make "
             "draw order depend on scheduling");
    }
  }

  void Report(int line, const char* rule, std::string message, std::string hint) {
    findings_.push_back(
        Finding{file_, line, rule, std::move(message), std::move(hint), false, {}});
  }

  void ApplySuppressions() {
    for (Finding& f : findings_) {
      if (f.rule == "SUP") {
        continue;  // malformed suppressions cannot suppress themselves
      }
      const auto it = lex_.allows.find(f.line);
      if (it == lex_.allows.end()) {
        continue;
      }
      for (const Allow& allow : it->second) {
        if (allow.rule == f.rule || allow.rule == "all" || allow.rule == "*") {
          f.suppressed = true;
          f.suppress_reason = allow.reason;
          break;
        }
      }
    }
  }

  std::string file_;
  LexOutput lex_;
  const std::vector<Token>& tokens_;
  std::set<std::string> unordered_names_;
  std::set<std::string> float_names_;
  std::vector<Finding> findings_;
};

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

LintResult LintSource(const std::string& path_label, const std::string& source) {
  return Linter(path_label, Lex(path_label, source)).Run();
}

LintResult LintFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    LintResult result;
    result.findings.push_back(
        Finding{path, 0, "SUP", "cannot read file", "check the path", false, {}});
    return result;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return LintSource(path, buffer.str());
}

size_t CountUnsuppressed(const LintResult& result) {
  size_t count = 0;
  for (const Finding& f : result.findings) {
    count += f.suppressed ? 0 : 1;
  }
  return count;
}

std::string FormatFinding(const Finding& finding) {
  std::string out = finding.file + ":" + std::to_string(finding.line) + ": [" +
                    finding.rule + "] " + finding.message;
  if (finding.suppressed) {
    out += " [suppressed: " + finding.suppress_reason + "]";
  } else if (!finding.hint.empty()) {
    out += " (hint: " + finding.hint + ")";
  }
  return out;
}

std::string FindingsAsJson(const LintResult& result) {
  std::string out = "{\"findings\":[";
  for (size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    if (i != 0) {
      out += ",";
    }
    out += "{\"file\":";
    AppendJsonString(f.file, &out);
    out += ",\"line\":" + std::to_string(f.line);
    out += ",\"rule\":";
    AppendJsonString(f.rule, &out);
    out += ",\"message\":";
    AppendJsonString(f.message, &out);
    out += ",\"hint\":";
    AppendJsonString(f.hint, &out);
    out += ",\"suppressed\":";
    out += f.suppressed ? "true" : "false";
    out += ",\"reason\":";
    AppendJsonString(f.suppress_reason, &out);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace diablo::detlint

// detlint CLI: lints C++ sources for determinism hazards (rules D1-D5, see
// lint.h) and exits nonzero when unsuppressed findings remain.
//
// Usage: detlint [MODE] [--exclude SUBSTR]... PATH...
//   PATH        a file, or a directory scanned recursively for .h/.cc/.cpp
//   --exclude   skip files whose path contains SUBSTR (repeatable); used to
//               keep the deliberate-violation test fixtures out of the gate
//   --quiet     print only the summary line
//   --audit     suppression audit: list every allow-suppression with its
//               rule and reason so reviews see what the gate is not checking.
//               Exits nonzero only for malformed suppressions (an allow()
//               without a reason), not for ordinary findings.
//   --json      print the findings as one JSON document on stdout instead of
//               text lines (same exit-code contract as the default mode)
//   --github    additionally emit GitHub Actions workflow commands
//               (::error file=F,line=L::msg) for unsuppressed findings so CI
//               surfaces them as PR annotations
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tools/detlint/lint.h"

namespace {

bool HasSourceExtension(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

// Escapes a message for a GitHub Actions workflow-command payload.
std::string GithubEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '%':
        out += "%25";
        break;
      case '\n':
        out += "%0A";
        break;
      case '\r':
        out += "%0D";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::vector<std::string> excludes;
  bool quiet = false;
  bool audit = false;
  bool json = false;
  bool github = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--github") {
      github = true;
    } else if (arg == "--exclude" && i + 1 < argc) {
      excludes.push_back(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "detlint: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr,
                 "usage: detlint [--quiet] [--audit] [--json] [--github] "
                 "[--exclude SUBSTR]... PATH...\n");
    return 2;
  }

  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (std::filesystem::is_directory(root, ec)) {
      for (auto it = std::filesystem::recursive_directory_iterator(root, ec);
           it != std::filesystem::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file(ec) && HasSourceExtension(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
    } else {
      files.push_back(root);
    }
  }
  // Directory iteration order is filesystem-dependent; a determinism linter
  // should at least report deterministically.
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  diablo::detlint::LintResult result;
  size_t linted = 0;
  size_t unreadable = 0;
  for (const std::string& file : files) {
    bool skip = false;
    for (const std::string& substr : excludes) {
      if (file.find(substr) != std::string::npos) {
        skip = true;
        break;
      }
    }
    if (skip) {
      continue;
    }
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "detlint: cannot read %s\n", file.c_str());
      ++unreadable;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ++linted;
    for (diablo::detlint::Finding& finding :
         diablo::detlint::LintSource(file, buffer.str()).findings) {
      result.findings.push_back(std::move(finding));
    }
  }
  size_t suppressed = 0;
  size_t unsuppressed = 0;
  size_t bad_suppressions = 0;
  for (const diablo::detlint::Finding& finding : result.findings) {
    if (finding.suppressed) {
      ++suppressed;
      if (audit && !quiet && !json) {
        std::printf("%s:%d: [%s] suppressed — %s\n", finding.file.c_str(),
                    finding.line, finding.rule.c_str(),
                    finding.suppress_reason.c_str());
      }
      continue;
    }
    ++unsuppressed;
    if (finding.rule == "SUP") {
      ++bad_suppressions;
    }
    if (!json && !quiet && (!audit || finding.rule == "SUP")) {
      std::printf("%s\n", diablo::detlint::FormatFinding(finding).c_str());
    }
    if (github) {
      std::printf("::error file=%s,line=%d::[%s] %s\n", finding.file.c_str(),
                  finding.line, finding.rule.c_str(),
                  GithubEscape(finding.message).c_str());
    }
  }
  if (json) {
    std::printf("%s\n", diablo::detlint::FindingsAsJson(result).c_str());
  }
  if (audit) {
    // The audit pass reviews the suppression inventory: every allow() is
    // listed with its reason, and only reason-less ones fail the gate (the
    // ordinary findings gate runs as a separate invocation).
    if (!json) {
      std::printf("detlint audit: %zu file(s), %zu suppression(s), "
                  "%zu malformed\n",
                  linted, suppressed, bad_suppressions);
    }
    return bad_suppressions == 0 && unreadable == 0 ? 0 : 1;
  }
  if (!json) {
    std::printf("detlint: %zu file(s), %zu finding(s), %zu suppressed\n",
                linted, unsuppressed, suppressed);
  }
  return unsuppressed == 0 && unreadable == 0 ? 0 : 1;
}

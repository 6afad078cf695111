// detlint: a determinism lint for this codebase.
//
// The simulator's one non-negotiable property is bit-determinism: the same
// seed must produce byte-identical output regardless of DIABLO_JOBS, host,
// or standard library. The golden-output tests catch violations after they
// ship; detlint catches the hazard *classes* at lint time, before a run is
// ever needed. It is a token-level scanner
// (comments, strings and preprocessor lines are stripped; no libclang),
// which keeps it fast, dependency-free and honest about what it can see —
// each rule is a syntactic pattern with a documented blind spot, not a
// soundness proof.
//
// Rules:
//   D1  iteration over std::unordered_map / std::unordered_set declared in
//       the same file (range-for or .begin()/.cbegin()): iteration order is
//       unspecified and leaks into output, RNG draw order, event scheduling
//       and report aggregation.
//   D2  wall-clock or ambient-entropy sources: std::random_device, rand(),
//       srand(), time(), clock(), gettimeofday, localtime, and the <chrono>
//       clocks (system_clock / steady_clock / high_resolution_clock).
//       Simulated time comes from Simulation::Now(); randomness from a
//       seeded Rng. The profiling layer suppresses these inline.
//   D3  pointer-valued keys in associative containers (map/set/unordered_*
//       keyed on T*) and pointer-to-integer casts (reinterpret_cast to
//       uintptr_t/intptr_t/size_t/uint64_t): addresses vary run to run, so
//       any order or hash derived from them is nondeterministic.
//   D4  draws from a shared RNG stream reached through an accessor
//       (x->rng().NextFoo(...)): components must fork a private stream once
//       at construction (Rng::Fork / Simulation::ForkRng) so event
//       reordering never perturbs another component's draws. Receivers
//       known to return an already-forked per-component stream (the
//       ChainContext accessor spelled `ctx` / `ctx_`) are allowlisted.
//       Also flags `static Rng` / `thread_local Rng` declarations.
//   D5  floating-point accumulation (+=/-= on a float/double) inside a
//       range-for over an unordered container: FP addition is not
//       associative, so an unspecified reduction order changes the sum.
//
// Suppression: `// detlint: allow(D2, <reason>)` on the finding's line, or
// standalone on the line above (it then applies to the next code line).
// The reason is mandatory, and RULE must be one of D1-D5 (or `all`); an
// allow() without a reason or naming no rule is itself reported (rule id
// "SUP") and suppresses nothing. Suppressed findings are kept in the result
// with `suppressed` set so tests and tooling can audit them.
#ifndef TOOLS_DETLINT_LINT_H_
#define TOOLS_DETLINT_LINT_H_

#include <string>
#include <vector>

namespace diablo::detlint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;     // "D1".."D5" or "SUP"
  std::string message;  // what was matched
  std::string hint;     // how to fix it
  bool suppressed = false;
  std::string suppress_reason;  // set when suppressed
};

struct LintResult {
  std::vector<Finding> findings;  // in file then line order, suppressed included
};

// Lints an in-memory translation unit; `path_label` is used only for the
// Finding::file field.
LintResult LintSource(const std::string& path_label, const std::string& source);

// Reads and lints a file; returns a single SUP finding when unreadable.
LintResult LintFile(const std::string& path);

// Number of findings that are not suppressed.
size_t CountUnsuppressed(const LintResult& result);

// One formatted line per finding: "file:line: [rule] message (hint: ...)".
std::string FormatFinding(const Finding& finding);

// Machine-readable dump of every finding:
// {"findings":[{"file":...,"line":...,"rule":...,"message":...,
//   "hint":...,"suppressed":...,"reason":...}, ...]}
std::string FindingsAsJson(const LintResult& result);

}  // namespace diablo::detlint

#endif  // TOOLS_DETLINT_LINT_H_

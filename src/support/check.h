// Checked-build invariant assertions: the dynamic counterpart of detlint.
//
// Configuring with -DDIABLO_CHECKED=ON compiles consistency checks into the
// sim/chain/net hot paths — event dispatch order, mempool SoA table
// agreement, block (tx_begin, tx_count) ranges, windowed order-statistic
// results cross-checked against nth_element, ledger header continuity. The
// checks give detlint's hazard classes runtime teeth: a rule the lint can
// only pattern-match (say, a reduction order silently changing) trips here
// the moment it produces a wrong value.
//
// Contract: checks never draw from an Rng, never touch stdout, and never
// mutate simulation state, so a checked run's output is byte-identical to an
// unchecked one (locked by configs_test's golden-report-hash case). A failed
// check prints the site and message to stderr and aborts.
//
// DIABLO_CHECK(cond, msg)      assert `cond`; compiled out when unchecked.
// DIABLO_CHECKED_ONLY(...)     splice tokens (members, statements) only into
//                              checked builds; use for check bookkeeping.
// kCheckedBuild                constexpr flag for tests and cadence gates.
#ifndef SRC_SUPPORT_CHECK_H_
#define SRC_SUPPORT_CHECK_H_

namespace diablo {

[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const char* msg);

#if defined(DIABLO_CHECKED) && DIABLO_CHECKED
inline constexpr bool kCheckedBuild = true;
#else
inline constexpr bool kCheckedBuild = false;
#endif

}  // namespace diablo

#if defined(DIABLO_CHECKED) && DIABLO_CHECKED
#define DIABLO_CHECK(cond, msg)                                  \
  do {                                                           \
    if (!(cond)) {                                               \
      ::diablo::CheckFailed(__FILE__, __LINE__, #cond, (msg));   \
    }                                                            \
  } while (0)
#define DIABLO_CHECKED_ONLY(...) __VA_ARGS__
#else
#define DIABLO_CHECK(cond, msg) \
  do {                          \
  } while (0)
#define DIABLO_CHECKED_ONLY(...)
#endif

#endif  // SRC_SUPPORT_CHECK_H_

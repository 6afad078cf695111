// Small string helpers shared by the config parser, the assembler and the
// report printers. GCC 12 lacks std::format, so printf-style StrFormat fills
// the gap.
#ifndef SRC_SUPPORT_STRINGS_H_
#define SRC_SUPPORT_STRINGS_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace diablo {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Removes leading and trailing whitespace.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

// Splits on a single character; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char sep);

// Splits on runs of whitespace; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Strict integer / double parsing. Returns false on any trailing garbage.
bool ParseInt64(std::string_view s, int64_t* out);
bool ParseDouble(std::string_view s, double* out);

// Lowercases ASCII.
std::string ToLower(std::string_view s);

}  // namespace diablo

#endif  // SRC_SUPPORT_STRINGS_H_

// A compiled contract: flat bytecode plus a table of exported function entry
// points. The host invokes a function directly by entry offset (the chains'
// client SDKs resolve the function name before submission, so no selector
// dispatch runs on-chain in the simulation).
#ifndef SRC_VM_PROGRAM_H_
#define SRC_VM_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace diablo {

struct FunctionEntry {
  std::string name;
  uint32_t offset = 0;
};

struct Program {
  std::string name;
  std::vector<uint8_t> code;
  std::vector<FunctionEntry> functions;

  // Entry offset of `function`, or -1 when not exported.
  int64_t EntryOf(std::string_view function) const {
    for (const FunctionEntry& f : functions) {
      if (f.name == function) {
        return f.offset;
      }
    }
    return -1;
  }
};

}  // namespace diablo

#endif  // SRC_VM_PROGRAM_H_

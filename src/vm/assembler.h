// Two-pass assembler for the VM.
//
// Source format, one statement per line:
//   ; comment (also after statements)
//   .func name        — exports the next instruction as entry point `name`
//   label:            — defines a jump label
//   push 42           — mnemonic plus optional immediate
//   jump label        — jump targets are labels
//
// The five DApps of §3 are written in this assembly (src/contracts/).
#ifndef SRC_VM_ASSEMBLER_H_
#define SRC_VM_ASSEMBLER_H_

#include <string>
#include <string_view>

#include "src/vm/program.h"

namespace diablo {

struct AssembleResult {
  bool ok = false;
  std::string error;  // "line N: message" when !ok
  Program program;
};

AssembleResult Assemble(std::string_view name, std::string_view source);

}  // namespace diablo

#endif  // SRC_VM_ASSEMBLER_H_

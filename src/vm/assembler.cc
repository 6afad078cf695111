#include "src/vm/assembler.h"

#include <map>

#include "src/support/strings.h"
#include "src/vm/opcode.h"

namespace diablo {
namespace {

void AppendImmediate(std::vector<uint8_t>* code, int64_t value, int width) {
  for (int i = 0; i < width; ++i) {
    code->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

std::string_view StripComment(std::string_view line) {
  const size_t pos = line.find(';');
  return pos == std::string_view::npos ? line : line.substr(0, pos);
}

}  // namespace

AssembleResult Assemble(std::string_view name, std::string_view source) {
  AssembleResult result;
  result.program.name = std::string(name);

  struct Fixup {
    size_t code_offset;  // where the 4-byte target lives
    std::string label;
    int line;
  };
  std::map<std::string, uint32_t> labels;
  std::vector<Fixup> fixups;
  std::vector<uint8_t>& code = result.program.code;
  std::string pending_func;

  const std::vector<std::string> lines = Split(source, '\n');
  for (size_t line_no = 0; line_no < lines.size(); ++line_no) {
    const int line = static_cast<int>(line_no) + 1;
    auto fail = [&](const std::string& message) {
      result.error = StrFormat("line %d: %s", line, message.c_str());
      return result;
    };

    std::string_view text = TrimView(StripComment(lines[line_no]));
    if (text.empty()) {
      continue;
    }

    if (StartsWith(text, ".func")) {
      const std::vector<std::string> parts = SplitWhitespace(text);
      if (parts.size() != 2) {
        return fail(".func expects exactly one name");
      }
      pending_func = parts[1];
      continue;
    }

    if (EndsWith(text, ":")) {
      const std::string label = Trim(text.substr(0, text.size() - 1));
      if (label.empty() || SplitWhitespace(label).size() != 1) {
        return fail("malformed label");
      }
      if (labels.contains(label)) {
        return fail("duplicate label '" + label + "'");
      }
      labels[label] = static_cast<uint32_t>(code.size());
      continue;
    }

    const std::vector<std::string> parts = SplitWhitespace(text);
    Opcode op;
    if (!ParseOpcode(parts[0], &op)) {
      return fail("unknown mnemonic '" + parts[0] + "'");
    }
    if (!pending_func.empty()) {
      result.program.functions.push_back(
          FunctionEntry{pending_func, static_cast<uint32_t>(code.size())});
      // Exported functions double as call/jump targets.
      if (!labels.contains(pending_func)) {
        labels[pending_func] = static_cast<uint32_t>(code.size());
      }
      pending_func.clear();
    }
    code.push_back(static_cast<uint8_t>(op));

    const int width = ImmediateWidth(op);
    if (width == 0) {
      if (parts.size() != 1) {
        return fail("'" + parts[0] + "' takes no operand");
      }
      continue;
    }
    if (parts.size() != 2) {
      return fail("'" + parts[0] + "' requires one operand");
    }
    if (op == Opcode::kJump || op == Opcode::kJumpI || op == Opcode::kCall) {
      fixups.push_back(Fixup{code.size(), parts[1], line});
      AppendImmediate(&code, 0, width);
      continue;
    }
    int64_t value = 0;
    if (!ParseInt64(parts[1], &value)) {
      return fail("bad operand '" + parts[1] + "'");
    }
    if (width == 1 && (value < 0 || value > 255)) {
      return fail("operand out of byte range");
    }
    AppendImmediate(&code, value, width);
  }

  if (!pending_func.empty()) {
    result.error = ".func '" + pending_func + "' has no following instruction";
    return result;
  }

  for (const Fixup& fixup : fixups) {
    const auto it = labels.find(fixup.label);
    if (it == labels.end()) {
      result.error = StrFormat("line %d: undefined label '%s'", fixup.line,
                               fixup.label.c_str());
      return result;
    }
    const uint32_t target = it->second;
    for (int i = 0; i < 4; ++i) {
      code[fixup.code_offset + static_cast<size_t>(i)] =
          static_cast<uint8_t>(target >> (8 * i));
    }
  }

  result.ok = true;
  return result;
}

std::string Disassemble(const Program& program) {
  std::string out;
  size_t pc = 0;
  while (pc < program.code.size()) {
    for (const FunctionEntry& f : program.functions) {
      if (f.offset == pc) {
        out += ".func " + f.name + "\n";
      }
    }
    const Opcode op = static_cast<Opcode>(program.code[pc]);
    out += StrFormat("%04zu  %s", pc, std::string(OpcodeName(op)).c_str());
    ++pc;
    const int width = ImmediateWidth(op);
    if (width > 0) {
      int64_t value = 0;
      for (int i = 0; i < width; ++i) {
        value |= static_cast<int64_t>(program.code[pc + static_cast<size_t>(i)]) << (8 * i);
      }
      if (width == 8) {
        out += StrFormat(" %lld", static_cast<long long>(value));
      } else {
        out += StrFormat(" %lld", static_cast<long long>(value & ((1LL << (8 * width)) - 1)));
      }
      pc += static_cast<size_t>(width);
    }
    out += "\n";
  }
  return out;
}

}  // namespace diablo

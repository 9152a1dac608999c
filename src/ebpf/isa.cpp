#include "ebpf/isa.hpp"

#include "common/logging.hpp"

namespace ehdl::ebpf {

std::string
regName(unsigned reg)
{
    if (reg >= kNumRegs)
        panic("invalid register index ", reg);
    return "r" + std::to_string(reg);
}

std::string
jmpOpSymbol(JmpOp op)
{
    switch (op) {
      case JmpOp::Jeq: return "==";
      case JmpOp::Jgt: return ">";
      case JmpOp::Jge: return ">=";
      case JmpOp::Jset: return "&";
      case JmpOp::Jne: return "!=";
      case JmpOp::Jsgt: return "s>";
      case JmpOp::Jsge: return "s>=";
      case JmpOp::Jlt: return "<";
      case JmpOp::Jle: return "<=";
      case JmpOp::Jslt: return "s<";
      case JmpOp::Jsle: return "s<=";
      default: return "?";
    }
}

}  // namespace ehdl::ebpf

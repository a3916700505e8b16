#include "ir/parser.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "support/assert.hpp"
#include "support/string_utils.hpp"

namespace ilc::ir {

namespace {

using support::split;
using support::split_ws;
using support::starts_with;
using support::trim;

/// Cursor over one line with line-numbered error reporting.
class LineParser {
 public:
  LineParser(const std::string& line, std::size_t line_no)
      : s_(line), line_no_(line_no) {}

  [[noreturn]] void fail(const std::string& msg) const {
    ILC_CHECK_MSG(false, "IR parse error at line " << line_no_ << ": " << msg
                                                   << " in '" << s_ << "'");
    std::abort();  // unreachable
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  bool eat(const std::string& token) {
    skip_ws();
    if (s_.compare(pos_, token.size(), token) == 0) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void expect(const std::string& token) {
    if (!eat(token)) fail("expected '" + token + "'");
  }

  bool at_end() {
    skip_ws();
    return pos_ >= s_.size();
  }

  /// A decimal integer that must fit the field's type T: a value out of
  /// T's range is an error, never truncated or wrapped.
  template <typename T>
  T integer() {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '+') ++pos_;
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    const std::size_t digits = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    if (pos_ == digits) fail("expected integer");
    T value{};
    const char* end = s_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(s_.data() + start, end, value);
    if (ec != std::errc() || ptr != end) fail("integer out of range");
    return value;
  }

  std::string word() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '_' || s_[pos_] == '.'))
      ++pos_;
    if (pos_ == start) fail("expected identifier");
    return s_.substr(start, pos_ - start);
  }

  /// Register name: rN or _ (no register).
  Reg reg() {
    skip_ws();
    if (eat("_")) return kNoReg;
    expect("r");
    return integer<Reg>();
  }

  BlockId block() {
    expect("bb");
    return integer<BlockId>();
  }

 private:
  std::string s_;
  std::size_t pos_ = 0;
  std::size_t line_no_;
};

FieldKind field_kind_from(const std::string& name, LineParser& lp) {
  if (name == "i8") return FieldKind::I8;
  if (name == "i16") return FieldKind::I16;
  if (name == "i32") return FieldKind::I32;
  if (name == "i64") return FieldKind::I64;
  if (name == "ptr") return FieldKind::Ptr;
  lp.fail("unknown field kind '" + name + "'");
}

/// Parse the optional "!field(recN.M)" / "!stride(recN)" / "!ptrwidth"
/// annotation into the instruction.
void parse_annotation(LineParser& lp, Instr& inst) {
  if (lp.eat("!field(rec")) {
    inst.tag = ImmTag::FieldOffset;
    inst.rec = lp.integer<RecordId>();
    lp.expect(".");
    inst.field = lp.integer<FieldId>();
    lp.expect(")");
  } else if (lp.eat("!stride(rec")) {
    inst.tag = ImmTag::RecordStride;
    inst.rec = lp.integer<RecordId>();
    lp.expect(")");
  } else if (lp.eat("!ptrwidth")) {
    inst.tag = ImmTag::PtrWidth;
  }
}

MemWidth parse_width(std::int64_t bytes, LineParser& lp) {
  switch (bytes) {
    case 1: return MemWidth::W1;
    case 2: return MemWidth::W2;
    case 4: return MemWidth::W4;
    case 8: return MemWidth::W8;
    default: lp.fail("bad access width");
  }
}

Opcode binop_from_name(const std::string& name, bool& found) {
  found = true;
  for (Opcode op : {Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
                    Opcode::Rem, Opcode::And, Opcode::Or, Opcode::Xor,
                    Opcode::Shl, Opcode::Shr, Opcode::Min, Opcode::Max,
                    Opcode::CmpEq, Opcode::CmpNe, Opcode::CmpLt,
                    Opcode::CmpLe, Opcode::CmpGt, Opcode::CmpGe}) {
    if (name == opcode_name(op)) return op;
  }
  found = false;
  return Opcode::Nop;
}

Instr parse_instr(const std::string& line, std::size_t line_no) {
  LineParser lp(line, line_no);
  Instr inst;

  if (lp.eat("nop")) {
    inst.op = Opcode::Nop;
    return inst;
  }
  if (lp.eat("jump ")) {
    inst.op = Opcode::Jump;
    inst.t1 = lp.block();
    return inst;
  }
  if (lp.eat("br ")) {
    inst.op = Opcode::Br;
    inst.a = lp.reg();
    lp.expect(",");
    inst.t1 = lp.block();
    lp.expect(",");
    inst.t2 = lp.block();
    return inst;
  }
  if (lp.eat("ret")) {
    inst.op = Opcode::Ret;
    inst.a = lp.at_end() ? kNoReg : lp.reg();
    return inst;
  }
  if (lp.eat("prefetch ")) {
    inst.op = Opcode::Prefetch;
    lp.expect("[");
    inst.a = lp.reg();
    lp.expect("+");
    inst.imm = lp.integer<std::int64_t>();
    lp.expect("]");
    return inst;
  }
  if (lp.eat("store.")) {
    inst.op = Opcode::Store;
    inst.width = parse_width(lp.integer<std::int64_t>(), lp);
    if (lp.eat("p")) inst.is_ptr = true;
    lp.expect("[");
    inst.a = lp.reg();
    lp.expect("+");
    inst.imm = lp.integer<std::int64_t>();
    lp.expect("]");
    lp.expect(",");
    inst.b = lp.reg();
    parse_annotation(lp, inst);
    return inst;
  }
  if (lp.eat("call ")) {  // void call
    inst.op = Opcode::Call;
    inst.dst = kNoReg;
    lp.expect("@");
    inst.callee = lp.integer<FuncId>();
    lp.expect("(");
    while (!lp.eat(")")) {
      if (inst.nargs > 0) lp.expect(",");
      ILC_CHECK(inst.nargs < kMaxCallArgs);
      inst.args[inst.nargs++] = lp.reg();
    }
    return inst;
  }

  // Everything else defines a register: "rN = ...".
  inst.dst = lp.reg();
  lp.expect("=");

  if (lp.eat("imm ")) {
    inst.op = Opcode::LoadImm;
    inst.imm = lp.integer<std::int64_t>();
    parse_annotation(lp, inst);
    return inst;
  }
  if (lp.eat("gaddr ")) {
    inst.op = Opcode::GlobalAddr;
    lp.expect("@");
    inst.gid = lp.integer<GlobalId>();
    return inst;
  }
  if (lp.eat("faddr ")) {
    inst.op = Opcode::FrameAddr;
    lp.expect("+");
    inst.imm = lp.integer<std::int64_t>();
    return inst;
  }
  if (lp.eat("load.")) {
    inst.op = Opcode::Load;
    inst.width = parse_width(lp.integer<std::int64_t>(), lp);
    if (lp.eat("p")) inst.is_ptr = true;
    lp.expect("[");
    inst.a = lp.reg();
    lp.expect("+");
    inst.imm = lp.integer<std::int64_t>();
    lp.expect("]");
    parse_annotation(lp, inst);
    return inst;
  }
  if (lp.eat("call ")) {
    inst.op = Opcode::Call;
    lp.expect("@");
    inst.callee = lp.integer<FuncId>();
    lp.expect("(");
    while (!lp.eat(")")) {
      if (inst.nargs > 0) lp.expect(",");
      ILC_CHECK(inst.nargs < kMaxCallArgs);
      inst.args[inst.nargs++] = lp.reg();
    }
    return inst;
  }

  const std::string op_name = lp.word();
  if (op_name == "mov" || op_name == "neg" || op_name == "not") {
    inst.op = op_name == "mov" ? Opcode::Mov
                               : (op_name == "neg" ? Opcode::Neg : Opcode::Not);
    inst.a = lp.reg();
    return inst;
  }
  bool found = false;
  inst.op = binop_from_name(op_name, found);
  if (!found) lp.fail("unknown opcode '" + op_name + "'");
  inst.a = lp.reg();
  lp.expect(",");
  inst.b = lp.reg();
  return inst;
}

}  // namespace

Module parse_module(const std::string& text) {
  Module mod;
  Function* fn = nullptr;
  BasicBlock* bb = nullptr;

  const auto lines = split(text, '\n');
  for (std::size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string line = trim(lines[ln]);
    const std::size_t line_no = ln + 1;
    if (line.empty()) continue;
    LineParser lp(line, line_no);

    if (starts_with(line, "module ")) {
      lp.expect("module");
      // The name may be empty (anonymous modules print "module  ptr=N").
      if (!lp.eat("ptr=")) {
        mod.name = lp.word();
        lp.expect("ptr=");
      }
      mod.set_ptr_bytes(lp.integer<unsigned>());
      continue;
    }
    if (starts_with(line, "record ")) {
      lp.expect("record");
      lp.expect("rec");
      lp.integer<RecordId>();  // id: sequential, implied
      RecordType rec;
      rec.name = lp.word();
      lp.expect("{");
      while (!lp.eat("}")) {
        if (!rec.fields.empty()) lp.expect(",");
        RecordField field;
        field.name = lp.word();
        lp.expect(":");
        field.kind = field_kind_from(lp.word(), lp);
        rec.fields.push_back(std::move(field));
      }
      mod.add_record(std::move(rec));
      continue;
    }
    if (starts_with(line, "global ")) {
      lp.expect("global");
      lp.expect("@");
      lp.integer<GlobalId>();  // id: sequential, implied
      Global g;
      g.name = lp.word();
      lp.expect("count=");
      g.count = lp.integer<std::uint64_t>();
      if (lp.eat("record=rec")) {
        g.kind = GlobalKind::RecordArray;
        g.record = lp.integer<RecordId>();
      } else {
        lp.expect("width=");
        const auto width = lp.integer<std::uint8_t>();
        if (lp.eat("ptr")) {
          g.elem_is_ptr = true;
        } else {
          g.elem_width = width;
        }
      }
      mod.add_global(std::move(g));
      continue;
    }
    if (starts_with(line, "func ")) {
      lp.expect("func");
      lp.expect("@");
      Function f;
      f.name = lp.word();
      lp.expect("(");
      f.num_args = lp.integer<unsigned>();
      lp.expect(")");
      lp.expect("regs=");
      f.num_regs = lp.integer<unsigned>();
      lp.expect("frame=");
      f.frame_size = lp.integer<unsigned>();
      lp.expect("{");
      mod.add_function(std::move(f));
      fn = &mod.functions().back();
      bb = nullptr;
      continue;
    }
    if (line == "}") {
      fn = nullptr;
      bb = nullptr;
      continue;
    }
    if (starts_with(line, "bb") && line.back() == ':') {
      ILC_CHECK_MSG(fn != nullptr, "block label outside function at line "
                                       << line_no);
      const BlockId id = fn->new_block();
      ILC_CHECK_MSG(line == "bb" + std::to_string(id) + ":",
                    "non-sequential block label at line " << line_no);
      bb = &fn->blocks[id];
      continue;
    }
    // Otherwise: an instruction inside the current block.
    ILC_CHECK_MSG(fn != nullptr && bb != nullptr,
                  "instruction outside block at line " << line_no);
    bb->insts.push_back(parse_instr(line, line_no));
  }
  return mod;
}

}  // namespace ilc::ir

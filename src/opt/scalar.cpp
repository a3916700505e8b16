// Scalar optimizations: global constant propagation/folding, block-local
// copy propagation and CSE, global dead-code elimination, strength
// reduction, and peephole simplification.
//
// Tagged immediates (record strides / field offsets / pointer width) are
// treated as opaque — never folded into untagged constants — so every
// sequence containing PtrCompress stays sound regardless of order.
#include <algorithm>
#include <optional>
#include <unordered_map>

#include "ir/analysis.hpp"
#include "opt/pass.hpp"
#include "support/assert.hpp"

namespace ilc::opt {

using namespace ir;

namespace {

// --- constant-propagation lattice -------------------------------------

struct Lattice {
  enum Kind : std::uint8_t { Top, Const, Bot } kind = Top;
  std::int64_t value = 0;

  static Lattice top() { return {}; }
  static Lattice constant(std::int64_t v) { return {Const, v}; }
  static Lattice bot() { return {Bot, 0}; }

  bool operator==(const Lattice&) const = default;
};

Lattice meet(const Lattice& a, const Lattice& b) {
  if (a.kind == Lattice::Top) return b;
  if (b.kind == Lattice::Top) return a;
  if (a.kind == Lattice::Bot || b.kind == Lattice::Bot)
    return Lattice::bot();
  return a.value == b.value ? a : Lattice::bot();
}

/// One lattice value per register.
using State = std::vector<Lattice>;

void transfer(const Instr& inst, Lattice* state) {
  if (!has_dst(inst)) return;
  Lattice out = Lattice::bot();
  switch (inst.op) {
    case Opcode::LoadImm:
      // Tagged immediates are layout-derived; keeping them opaque keeps
      // re-layout passes sound in any order.
      if (inst.tag == ImmTag::None) out = Lattice::constant(inst.imm);
      break;
    case Opcode::Mov:
      out = state[inst.a];
      break;
    case Opcode::Neg:
    case Opcode::Not:
      if (state[inst.a].kind == Lattice::Const) {
        std::int64_t v = 0;
        fold_constant(inst.op, state[inst.a].value, 0, v);
        out = Lattice::constant(v);
      }
      break;
    default:
      if (is_pure(inst) && num_srcs(inst) == 2 &&
          state[inst.a].kind == Lattice::Const &&
          state[inst.b].kind == Lattice::Const) {
        std::int64_t v = 0;
        if (fold_constant(inst.op, state[inst.a].value, state[inst.b].value,
                          v))
          out = Lattice::constant(v);
      }
      break;
  }
  state[inst.dst] = out;
}

}  // namespace

// The dataflow sweeps the reachable blocks round-robin in reverse
// post-order until no state changes, and that order is part of the
// result: `transfer` is not monotone in Top operands (a fold with one Top
// operand gives Bot, while two constants give a constant), so a worklist
// order could settle on a different fixpoint. What the sweep may skip is
// a block none of whose predecessors' out-states changed since its last
// visit: revisiting it would recompute the same in- and out-state.
bool const_prop(Function& fn, Module& mod) {
  (void)mod;
  const std::size_t n = fn.blocks.size();
  const std::size_t nr = fn.num_regs;
  const Cfg cfg(fn);
  const auto rpo = reverse_post_order(fn);
  std::vector<std::uint8_t> reachable(n, 0);
  for (BlockId b : rpo) reachable[b] = 1;

  // Block b's in- and out-state are rows b of these two tables.
  State in(n * nr), out(n * nr);
  auto in_of = [&](BlockId b) { return in.data() + b * nr; };
  auto out_of = [&](BlockId b) { return out.data() + b * nr; };
  // Function arguments are unknown at entry.
  for (unsigned a = 0; a < fn.num_args; ++a) in[a] = Lattice::bot();

  std::vector<std::uint8_t> dirty(n, 1);  // a predecessor's out changed
  State st(nr);  // scratch, reused by every visit
  bool changed_state = true;
  while (changed_state) {
    changed_state = false;
    for (BlockId b : rpo) {
      if (!dirty[b]) continue;
      dirty[b] = 0;
      if (b == 0) {
        std::copy(in_of(0), in_of(0) + nr, st.begin());
      } else {
        // meet(Top, x) == x, so the first reachable predecessor is copied.
        bool first = true;
        for (BlockId p : cfg.preds[b]) {
          if (!reachable[p]) continue;
          const Lattice* po = out_of(p);
          if (first) {
            std::copy(po, po + nr, st.begin());
            first = false;
          } else {
            for (std::size_t r = 0; r < nr; ++r) st[r] = meet(st[r], po[r]);
          }
        }
        if (first) std::fill(st.begin(), st.end(), Lattice::top());
      }
      if (!std::equal(st.begin(), st.end(), in_of(b))) {
        std::copy(st.begin(), st.end(), in_of(b));
        changed_state = true;
      }
      for (const Instr& inst : fn.blocks[b].insts) transfer(inst, st.data());
      if (!std::equal(st.begin(), st.end(), out_of(b))) {
        std::copy(st.begin(), st.end(), out_of(b));
        changed_state = true;
        for (BlockId s : cfg.succs[b]) dirty[s] = 1;
      }
    }
  }

  // Rewrite: materialize constants, fold constant branches. A Br writes
  // no register, so at a Br `st` still holds the state before it.
  bool changed = false;
  for (BlockId b : rpo) {
    std::copy(in_of(b), in_of(b) + nr, st.begin());
    for (Instr& inst : fn.blocks[b].insts) {
      transfer(inst, st.data());
      if (has_dst(inst) && is_pure(inst) && inst.op != Opcode::LoadImm &&
          st[inst.dst].kind == Lattice::Const) {
        Instr repl;
        repl.op = Opcode::LoadImm;
        repl.dst = inst.dst;
        repl.imm = st[inst.dst].value;
        inst = repl;
        changed = true;
      } else if (inst.op == Opcode::Br && st[inst.a].kind == Lattice::Const) {
        const BlockId target = st[inst.a].value != 0 ? inst.t1 : inst.t2;
        Instr repl;
        repl.op = Opcode::Jump;
        repl.t1 = target;
        inst = repl;
        changed = true;
      }
    }
  }
  return changed;
}

bool copy_prop(Function& fn) {
  bool changed = false;
  for (BasicBlock& bb : fn.blocks) {
    std::unordered_map<Reg, Reg> repl;  // reg -> equivalent older reg

    auto resolve = [&](Reg r) {
      auto it = repl.find(r);
      return it == repl.end() ? r : it->second;
    };
    auto kill = [&](Reg dst) {
      repl.erase(dst);
      for (auto it = repl.begin(); it != repl.end();) {
        if (it->second == dst) it = repl.erase(it);
        else ++it;
      }
    };

    for (Instr& inst : bb.insts) {
      // Rewrite uses through the copy map.
      auto rewrite = [&](Reg& r) {
        const Reg n = resolve(r);
        if (n != r) {
          r = n;
          changed = true;
        }
      };
      const unsigned n = num_srcs(inst);
      if (inst.op == Opcode::Store) {
        rewrite(inst.a);
        rewrite(inst.b);
      } else {
        if (n >= 1 && inst.a != kNoReg) rewrite(inst.a);
        if (n >= 2 && inst.b != kNoReg) rewrite(inst.b);
      }
      if (inst.op == Opcode::Call)
        for (unsigned i = 0; i < inst.nargs; ++i) rewrite(inst.args[i]);

      if (has_dst(inst)) {
        kill(inst.dst);
        if (inst.op == Opcode::Mov && inst.a != inst.dst)
          repl[inst.dst] = inst.a;
      }
    }
  }
  return changed;
}

namespace {

/// Key identifying a pure expression or a load for value numbering.
struct ExprKey {
  Opcode op;
  Reg a, b;
  std::int64_t imm;
  MemWidth width;
  bool is_ptr;
  ImmTag tag;
  RecordId rec;
  FieldId field;
  GlobalId gid;
  std::uint64_t epoch;  // memory generation, 0 for pure ops

  bool operator==(const ExprKey&) const = default;
};

ExprKey make_key(const Instr& inst, std::uint64_t epoch) {
  ExprKey k{inst.op, inst.a, inst.b, inst.imm, inst.width, inst.is_ptr,
            inst.tag, inst.rec, inst.field, inst.gid,
            reads_memory(inst) ? epoch : 0};
  if (is_commutative(inst.op) && k.a > k.b) std::swap(k.a, k.b);
  if (num_srcs(inst) < 2) k.b = kNoReg;
  if (num_srcs(inst) < 1) k.a = kNoReg;
  return k;
}

}  // namespace

bool local_cse(Function& fn) {
  bool changed = false;
  for (BasicBlock& bb : fn.blocks) {
    struct Entry {
      ExprKey key;
      Reg dst;
    };
    std::vector<Entry> table;
    std::uint64_t epoch = 1;

    auto invalidate_reg = [&](Reg dst) {
      table.erase(std::remove_if(table.begin(), table.end(),
                                 [&](const Entry& e) {
                                   return e.dst == dst || e.key.a == dst ||
                                          e.key.b == dst;
                                 }),
                  table.end());
    };

    for (Instr& inst : bb.insts) {
      const bool candidate =
          (is_pure(inst) || reads_memory(inst)) && has_dst(inst) &&
          inst.op != Opcode::Mov;  // copies are copy-prop's job
      if (candidate) {
        const ExprKey key = make_key(inst, epoch);
        const Entry* hit = nullptr;
        for (const Entry& e : table)
          if (e.key == key) {
            hit = &e;
            break;
          }
        if (hit != nullptr && hit->dst != inst.dst) {
          Instr repl;
          repl.op = Opcode::Mov;
          repl.dst = inst.dst;
          repl.a = hit->dst;
          inst = repl;
          changed = true;
          invalidate_reg(inst.dst);
          continue;
        }
        if (writes_memory(inst) || inst.op == Opcode::Call) ++epoch;
        invalidate_reg(inst.dst);
        if (hit == nullptr) table.push_back({key, inst.dst});
        continue;
      }
      if (writes_memory(inst) || inst.op == Opcode::Call) ++epoch;
      if (has_dst(inst)) invalidate_reg(inst.dst);
    }
  }
  return changed;
}

bool dce(Function& fn) {
  const Cfg cfg(fn);
  const Liveness lv = compute_liveness(fn, cfg);
  bool changed = false;

  RegSet live(fn.num_regs);
  std::vector<std::uint8_t> dead;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    BasicBlock& bb = fn.blocks[b];
    live = lv.live_out[b];
    dead.assign(bb.insts.size(), 0);
    bool any_dead = false;
    for (std::size_t i = bb.insts.size(); i-- > 0;) {
      const Instr& inst = bb.insts[i];
      const bool removable =
          inst.op == Opcode::Nop ||
          ((is_pure(inst) || reads_memory(inst)) && has_dst(inst) &&
           !live.contains(inst.dst));
      if (removable) {
        dead[i] = 1;
        any_dead = true;
        continue;
      }
      if (has_dst(inst)) live.erase(inst.dst);
      std::array<Reg, 2 + kMaxCallArgs> uses;
      unsigned n = 0;
      append_uses(inst, uses, n);
      for (unsigned u = 0; u < n; ++u) live.insert(uses[u]);
    }
    if (!any_dead) continue;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < bb.insts.size(); ++i)
      if (!dead[i]) bb.insts[kept++] = bb.insts[i];
    bb.insts.resize(kept);
    changed = true;
  }
  return changed;
}

namespace {

/// Track registers holding untagged compile-time constants in a block.
class LocalConsts {
 public:
  explicit LocalConsts(unsigned num_regs)
      : known_(num_regs, 0), value_(num_regs, 0) {}

  void note(const Instr& inst) {
    if (!has_dst(inst)) return;
    grow(inst.dst);
    if (inst.op == Opcode::LoadImm && inst.tag == ImmTag::None) {
      known_[inst.dst] = 1;
      value_[inst.dst] = inst.imm;
    } else {
      known_[inst.dst] = 0;
    }
  }

  std::optional<std::int64_t> get(Reg r) const {
    if (r == kNoReg || r >= known_.size() || !known_[r]) return std::nullopt;
    return value_[r];
  }

 private:
  // Passes allocate fresh registers while iterating (strength reduction),
  // so the tables grow on demand.
  void grow(Reg r) {
    if (r >= known_.size()) {
      known_.resize(r + 1, 0);
      value_.resize(r + 1, 0);
    }
  }

  std::vector<std::uint8_t> known_;
  std::vector<std::int64_t> value_;
};

bool is_pow2(std::int64_t v) { return v > 0 && (v & (v - 1)) == 0; }

int log2_i64(std::int64_t v) {
  int s = 0;
  while ((1LL << s) < v) ++s;
  return s;
}

}  // namespace

bool strength_reduce(Function& fn) {
  bool changed = false;
  for (BasicBlock& bb : fn.blocks) {
    LocalConsts consts(fn.num_regs);
    for (std::size_t i = 0; i < bb.insts.size(); ++i) {
      Instr inst = bb.insts[i];
      if (inst.op == Opcode::Mul) {
        // Normalize constant to operand b.
        Reg var = inst.a;
        std::optional<std::int64_t> c = consts.get(inst.b);
        if (!c) {
          c = consts.get(inst.a);
          var = inst.b;
        }
        if (c && (is_pow2(*c) || *c == 3 || *c == 5 || *c == 9)) {
          std::vector<Instr> repl;
          if (is_pow2(*c)) {
            Instr sh;
            sh.op = Opcode::LoadImm;
            sh.dst = fn.new_reg();
            sh.imm = log2_i64(*c);
            Instr shl;
            shl.op = Opcode::Shl;
            shl.dst = inst.dst;
            shl.a = var;
            shl.b = sh.dst;
            repl = {sh, shl};
          } else {
            // c in {3,5,9}: dst = (var << k) + var with k = log2(c-1).
            Instr sh;
            sh.op = Opcode::LoadImm;
            sh.dst = fn.new_reg();
            sh.imm = log2_i64(*c - 1);
            Instr shl;
            shl.op = Opcode::Shl;
            shl.dst = fn.new_reg();
            shl.a = var;
            shl.b = sh.dst;
            Instr add;
            add.op = Opcode::Add;
            add.dst = inst.dst;
            add.a = shl.dst;
            add.b = var;
            repl = {sh, shl, add};
          }
          bb.insts.erase(bb.insts.begin() + static_cast<long>(i));
          bb.insts.insert(bb.insts.begin() + static_cast<long>(i),
                          repl.begin(), repl.end());
          for (const Instr& r : repl) consts.note(r);
          i += repl.size() - 1;
          changed = true;
          continue;
        }
      }
      consts.note(bb.insts[i]);
    }
  }
  return changed;
}

bool peephole(Function& fn) {
  bool changed = false;
  for (BasicBlock& bb : fn.blocks) {
    LocalConsts consts(fn.num_regs);

    auto to_mov = [&](Instr& inst, Reg src) {
      Instr repl;
      repl.op = Opcode::Mov;
      repl.dst = inst.dst;
      repl.a = src;
      inst = repl;
      changed = true;
    };
    auto to_imm = [&](Instr& inst, std::int64_t v) {
      Instr repl;
      repl.op = Opcode::LoadImm;
      repl.dst = inst.dst;
      repl.imm = v;
      inst = repl;
      changed = true;
    };

    for (Instr& inst : bb.insts) {
      const auto ca = consts.get(inst.op == Opcode::Store ? kNoReg : inst.a);
      const auto cb =
          num_srcs(inst) >= 2 && inst.op != Opcode::Store
              ? consts.get(inst.b)
              : std::nullopt;
      switch (inst.op) {
        case Opcode::Add:
          if (cb && *cb == 0) to_mov(inst, inst.a);
          else if (ca && *ca == 0) to_mov(inst, inst.b);
          break;
        case Opcode::Sub:
          if (cb && *cb == 0) to_mov(inst, inst.a);
          else if (inst.a == inst.b) to_imm(inst, 0);
          break;
        case Opcode::Mul:
          if (cb && *cb == 1) to_mov(inst, inst.a);
          else if (ca && *ca == 1) to_mov(inst, inst.b);
          else if ((cb && *cb == 0) || (ca && *ca == 0)) to_imm(inst, 0);
          break;
        case Opcode::And:
          if (cb && *cb == -1) to_mov(inst, inst.a);
          else if (ca && *ca == -1) to_mov(inst, inst.b);
          else if ((cb && *cb == 0) || (ca && *ca == 0)) to_imm(inst, 0);
          else if (inst.a == inst.b) to_mov(inst, inst.a);
          break;
        case Opcode::Or:
          if (cb && *cb == 0) to_mov(inst, inst.a);
          else if (ca && *ca == 0) to_mov(inst, inst.b);
          else if (inst.a == inst.b) to_mov(inst, inst.a);
          break;
        case Opcode::Xor:
          if (cb && *cb == 0) to_mov(inst, inst.a);
          else if (ca && *ca == 0) to_mov(inst, inst.b);
          else if (inst.a == inst.b) to_imm(inst, 0);
          break;
        case Opcode::Shl:
        case Opcode::Shr:
          if (cb && *cb == 0) to_mov(inst, inst.a);
          break;
        case Opcode::Min:
        case Opcode::Max:
          if (inst.a == inst.b) to_mov(inst, inst.a);
          break;
        case Opcode::CmpEq:
        case Opcode::CmpLe:
        case Opcode::CmpGe:
          if (inst.a == inst.b) to_imm(inst, 1);
          break;
        case Opcode::CmpNe:
        case Opcode::CmpLt:
        case Opcode::CmpGt:
          if (inst.a == inst.b) to_imm(inst, 0);
          break;
        case Opcode::Br:
          if (inst.t1 == inst.t2) {
            Instr repl;
            repl.op = Opcode::Jump;
            repl.t1 = inst.t1;
            inst = repl;
            changed = true;
          }
          break;
        default:
          break;
      }
      consts.note(inst);
    }

    // Drop self-moves and nops.
    const auto new_end = std::remove_if(
        bb.insts.begin(), bb.insts.end(), [](const Instr& inst) {
          return inst.op == Opcode::Nop ||
                 (inst.op == Opcode::Mov && inst.dst == inst.a);
        });
    if (new_end != bb.insts.end()) {
      bb.insts.erase(new_end, bb.insts.end());
      changed = true;
    }
  }
  return changed;
}

}  // namespace ilc::opt

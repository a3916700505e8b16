#include "sim/interpreter.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "ir/printer.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"

namespace ilc::sim {

using ir::BlockId;
using ir::FuncId;
using ir::Instr;
using ir::Opcode;
using ir::Reg;

// Observability hooks, at invocation granularity only: one handle lookup
// per site (function-local static), a handful of relaxed atomic adds per
// simulated call, and never anything inside the per-instruction loop.
namespace {

obs::Counter& c_invocations() {
  static obs::Counter c = obs::Registry::instance().counter("sim.invocations");
  return c;
}
obs::Counter& c_instructions() {
  static obs::Counter c =
      obs::Registry::instance().counter("sim.instructions");
  return c;
}
obs::Counter& c_branch_mispredicts() {
  static obs::Counter c =
      obs::Registry::instance().counter("sim.branch.mispredicts");
  return c;
}
obs::Counter& c_l1_misses() {
  static obs::Counter c =
      obs::Registry::instance().counter("sim.cache.l1_misses");
  return c;
}
obs::Counter& c_l2_misses() {
  static obs::Counter c =
      obs::Registry::instance().counter("sim.cache.l2_misses");
  return c;
}
obs::Counter& c_image_builds() {
  static obs::Counter c = obs::Registry::instance().counter("sim.image_builds");
  return c;
}
obs::Histogram& h_execute_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("sim.execute_us");
  return h;
}

RunResult observed(RunResult rr) {
  c_invocations().add(1);
  c_instructions().add(rr.instructions);
  c_branch_mispredicts().add(rr.counters[BR_MSP]);
  c_l1_misses().add(rr.counters[L1_TCM]);
  c_l2_misses().add(rr.counters[L2_TCM]);
  return rr;
}

// Simulated memory is little-endian by definition (the byte-assembly
// loops in load_value/store_value). On little-endian hosts the same
// result is a single fixed-width access; big-endian hosts keep the loop.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
inline std::uint64_t load_le(const std::uint8_t* p, unsigned bytes) {
  switch (bytes) {
    case 1: return p[0];
    case 2: {
      std::uint16_t v;
      std::memcpy(&v, p, 2);
      return v;
    }
    case 4: {
      std::uint32_t v;
      std::memcpy(&v, p, 4);
      return v;
    }
    default: {
      std::uint64_t v;
      std::memcpy(&v, p, 8);
      return v;
    }
  }
}
inline void store_le(std::uint8_t* p, std::uint64_t v, unsigned bytes) {
  switch (bytes) {
    case 1: *p = static_cast<std::uint8_t>(v); break;
    case 2: {
      const std::uint16_t t = static_cast<std::uint16_t>(v);
      std::memcpy(p, &t, 2);
      break;
    }
    case 4: {
      const std::uint32_t t = static_cast<std::uint32_t>(v);
      std::memcpy(p, &t, 4);
      break;
    }
    default: std::memcpy(p, &v, 8); break;
  }
}
#else
inline std::uint64_t load_le(const std::uint8_t* p, unsigned bytes) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}
inline void store_le(std::uint8_t* p, std::uint64_t v, unsigned bytes) {
  for (unsigned i = 0; i < bytes; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
#endif

}  // namespace

Simulator::Simulator(const ir::Module& mod, const MachineConfig& cfg)
    : mod_(&mod),
      cfg_(cfg),
      image_(mod.build_image()),
      l1_(cfg.l1),
      l2_(cfg.l2),
      bpred_(cfg.bpred_entries) {
  c_image_builds().add(1);
}

Simulator::Simulator(const ir::Module& mod, const MachineConfig& cfg,
                     std::shared_ptr<const ir::MemoryImage> initial)
    : mod_(&mod),
      cfg_(cfg),
      image_{static_cast<const ir::ImageLayout&>(*initial), {}},
      initial_(std::move(initial)),
      l1_(cfg.l1),
      l2_(cfg.l2),
      bpred_(cfg.bpred_entries) {
  check_layout(mod, "a restartable simulator");
  // The stack above the globals starts zero in a fresh buffer.
  image_.bytes.reset(image_.size());
  std::memcpy(image_.bytes.data(), initial_->bytes.data(), image_.stack_base);
}

std::shared_ptr<const ir::MemoryImage> Simulator::initial_image(
    const ir::Module& mod) {
  c_image_builds().add(1);
  return std::make_shared<const ir::MemoryImage>(mod.build_image());
}

void Simulator::check_layout(const ir::Module& next, const char* what) const {
  ILC_CHECK_MSG(next.image_layout() ==
                    static_cast<const ir::ImageLayout&>(image_),
                what << " requires an identical memory layout");
}

void Simulator::restart(const ir::Module& next) {
  ILC_CHECK_MSG(initial_ != nullptr,
                "restart needs a simulator built on an initial image");
  check_layout(next, "restart");
  // Copy the initial bytes back over what the stores wrote: globals from
  // the initial image, the stack (zero in every initial image) by memset.
  if (store_lo_ < store_hi_) {
    std::uint8_t* const mem = image_.bytes.data();
    const std::uint64_t split =
        std::clamp(image_.stack_base, store_lo_, store_hi_);
    std::memcpy(mem + store_lo_, initial_->bytes.data() + store_lo_,
                split - store_lo_);
    std::memset(mem + split, 0, store_hi_ - split);
  }
  store_lo_ = UINT64_MAX;
  store_hi_ = 0;
#ifndef NDEBUG
  {
    const ir::MemoryImage fresh = next.build_image();
    ILC_CHECK_MSG(std::memcmp(fresh.bytes.data(), image_.bytes.data(),
                              fresh.size()) == 0,
                  "restart left an image unequal to " << next.name
                                                      << "'s initial image");
  }
#endif
  l1_.clear();
  l2_.clear();
  bpred_.reset();
  total_ = Counters{};
  cycle_ = 0;
  slots_used_ = 0;
  executed_ = 0;
  mod_ = &next;
  decoded_.reset();
}

void Simulator::switch_module(const ir::Module& next) {
  check_layout(next, "switch_module");
  mod_ = &next;
  decoded_.reset();  // the next engine call decodes `next`
}

void Simulator::bounds_check(std::uint64_t addr, unsigned bytes) const {
  if (addr < ir::MemoryImage::kNullGuard ||
      addr + bytes > image_.bytes.size()) {
    std::ostringstream os;
    os << "memory trap: access of " << bytes << " bytes at address " << addr
       << " (image size " << image_.bytes.size() << ")";
    throw TrapError(os.str());
  }
}

std::int64_t Simulator::load_value(std::uint64_t addr, unsigned bytes,
                                   bool is_ptr) const {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(image_.bytes[addr + i]) << (8 * i);
  if (is_ptr || bytes == 8) return static_cast<std::int64_t>(v);
  // Sign-extend data loads narrower than 8 bytes.
  const unsigned shift = 64 - 8 * bytes;
  return static_cast<std::int64_t>(v << shift) >> shift;
}

void Simulator::store_value(std::uint64_t addr, std::int64_t value,
                            unsigned bytes) {
  const auto v = static_cast<std::uint64_t>(value);
  for (unsigned i = 0; i < bytes; ++i)
    image_.bytes[addr + i] = static_cast<std::uint8_t>(v >> (8 * i));
  store_lo_ = std::min(store_lo_, addr);
  store_hi_ = std::max(store_hi_, addr + bytes);
}

std::uint32_t Simulator::mem_access(std::uint64_t addr, bool is_write) {
  total_[L1_TCA] += 1;
  if (l1_.access(addr)) return cfg_.l1.hit_latency;
  total_[L1_TCM] += 1;
  total_[is_write ? L1_STM : L1_LDM] += 1;
  total_[L2_TCA] += 1;
  if (l2_.access(addr)) return cfg_.l1.hit_latency + cfg_.l2.hit_latency;
  total_[L2_TCM] += 1;
  total_[is_write ? L2_STM : L2_LDM] += 1;
  return cfg_.l1.hit_latency + cfg_.l2.hit_latency + cfg_.mem_latency;
}

void Simulator::prefetch(std::uint64_t addr) {
  if (!l1_.access(addr)) l2_.access(addr);
}

RunResult Simulator::call(const std::string& fn_name,
                          const std::vector<std::int64_t>& args) {
  const FuncId id = mod_->find_function(fn_name);
  ILC_CHECK_MSG(id != ir::kNoFunc, "no function named " << fn_name);
  return call(id, args);
}

RunResult Simulator::run() { return call("main"); }

RunResult Simulator::call(FuncId fn_id,
                          const std::vector<std::int64_t>& args) {
  // Decode on the first engine call, outside the execute timer, so a
  // Simulator that only runs the reference never decodes.
  if (!decoded_) decoded_ = decode_program(*mod_);
  obs::ScopedTimerUs timer(h_execute_us());
  return observed(execute(fn_id, args));
}

RunResult Simulator::run_reference() {
  const FuncId id = mod_->find_function("main");
  ILC_CHECK_MSG(id != ir::kNoFunc, "no function named main");
  return call_reference(id);
}

RunResult Simulator::call_reference(FuncId fn_id,
                                    const std::vector<std::int64_t>& args) {
  obs::ScopedTimerUs timer(h_execute_us());
  return observed(interpret(fn_id, args));
}

// --- the tree-walking reference --------------------------------------------

RunResult Simulator::interpret(FuncId fn_id,
                               const std::vector<std::int64_t>& args) {
  const Counters before = total_;
  const std::uint64_t cycles_before = cycle_;
  const std::uint64_t executed_before = executed_;
  const std::uint64_t budget_end = executed_ + cfg_.max_instructions;

  std::vector<Frame> stack;
  std::uint64_t frame_cursor = image_.stack_base;

  auto push_frame = [&](FuncId id, ir::Reg ret_dst) -> Frame& {
    const ir::Function& fn = mod_->function(id);
    if (stack.size() >= kMaxCallDepth)
      throw TrapError("call depth exceeded in " + fn.name);
    Frame fr;
    fr.fn = &fn;
    fr.fn_id = id;
    fr.regs.assign(fn.num_regs, 0);
    fr.ready.assign(fn.num_regs, 0);
    fr.frame_base = frame_cursor;
    frame_cursor += (fn.frame_size + 15) / 16 * 16;
    if (frame_cursor > image_.stack_base + image_.stack_size)
      throw TrapError("stack overflow in " + fn.name);
    fr.ret_dst = ret_dst;
    stack.push_back(std::move(fr));
    return stack.back();
  };

  {
    const ir::Function& fn = mod_->function(fn_id);
    ILC_CHECK_MSG(args.size() == fn.num_args,
                  "arity mismatch calling " << fn.name);
    Frame& fr = push_frame(fn_id, ir::kNoReg);
    for (std::size_t i = 0; i < args.size(); ++i) fr.regs[i] = args[i];
  }

  std::int64_t final_ret = 0;

  while (!stack.empty()) {
    Frame& fr = stack.back();
    const ir::Function& fn = *fr.fn;
    ILC_ASSERT(fr.block < fn.blocks.size());
    const ir::BasicBlock& bb = fn.blocks[fr.block];
    ILC_ASSERT(fr.ip < bb.insts.size());
    const Instr& inst = bb.insts[fr.ip];

    if (++executed_ > budget_end)
      throw TrapError("instruction budget exhausted (runaway loop?)");
    total_[TOT_INS] += 1;

    // --- timing: stall until register sources are ready, then claim an
    // issue slot (issue_width instructions share a cycle).
    std::array<Reg, 2 + ir::kMaxCallArgs> uses;
    unsigned nu = 0;
    ir::append_uses(inst, uses, nu);
    std::uint64_t earliest = 0;
    for (unsigned u = 0; u < nu; ++u)
      earliest = std::max(earliest, fr.ready[uses[u]]);
    if (earliest > cycle_) {
      cycle_ = earliest;
      slots_used_ = 0;
    } else if (slots_used_ >= cfg_.issue_width) {
      cycle_ += 1;
      slots_used_ = 0;
    }
    ++slots_used_;

    std::uint32_t result_latency = cfg_.lat_alu;
    bool advance = true;  // move ip forward unless control transfer happened

    switch (inst.op) {
      case Opcode::Nop:
        break;
      case Opcode::LoadImm:
        fr.regs[inst.dst] = inst.imm;
        break;
      case Opcode::Mov:
        fr.regs[inst.dst] = fr.regs[inst.a];
        break;
      case Opcode::GlobalAddr:
        fr.regs[inst.dst] =
            static_cast<std::int64_t>(image_.global_base[inst.gid]);
        break;
      case Opcode::FrameAddr:
        fr.regs[inst.dst] =
            static_cast<std::int64_t>(fr.frame_base + inst.imm);
        break;
      case Opcode::Neg:
      case Opcode::Not: {
        std::int64_t out = 0;
        ir::fold_constant(inst.op, fr.regs[inst.a], 0, out);
        fr.regs[inst.dst] = out;
        break;
      }
      case Opcode::Mul:
        result_latency = cfg_.lat_mul;
        goto binary;
      case Opcode::Div:
      case Opcode::Rem:
        result_latency = cfg_.lat_div;
        goto binary;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Min:
      case Opcode::Max:
      case Opcode::CmpEq:
      case Opcode::CmpNe:
      case Opcode::CmpLt:
      case Opcode::CmpLe:
      case Opcode::CmpGt:
      case Opcode::CmpGe:
      binary: {
        std::int64_t out = 0;
        const bool ok =
            ir::fold_constant(inst.op, fr.regs[inst.a], fr.regs[inst.b], out);
        ILC_ASSERT(ok);
        fr.regs[inst.dst] = out;
        break;
      }
      case Opcode::Load: {
        const auto addr = static_cast<std::uint64_t>(
            fr.regs[inst.a] + inst.imm);
        const unsigned bytes = ir::width_bytes(inst.width);
        bounds_check(addr, bytes);
        total_[LD_INS] += 1;
        result_latency = mem_access(addr, /*is_write=*/false);
        fr.regs[inst.dst] = load_value(addr, bytes, inst.is_ptr);
        break;
      }
      case Opcode::Store: {
        const auto addr = static_cast<std::uint64_t>(
            fr.regs[inst.a] + inst.imm);
        const unsigned bytes = ir::width_bytes(inst.width);
        bounds_check(addr, bytes);
        total_[SR_INS] += 1;
        // Stores retire through a store buffer: the cache access is
        // counted but does not stall the pipeline.
        mem_access(addr, /*is_write=*/true);
        store_value(addr, fr.regs[inst.b], bytes);
        break;
      }
      case Opcode::Prefetch: {
        const auto addr = static_cast<std::uint64_t>(
            fr.regs[inst.a] + inst.imm);
        // Non-binding: out-of-range prefetches are dropped, in-range ones
        // warm the hierarchy without stalling.
        if (addr >= ir::MemoryImage::kNullGuard &&
            addr + 8 <= image_.bytes.size()) {
          prefetch(addr);
        }
        break;
      }
      case Opcode::Jump:
        fr.prev_block = fr.block;
        fr.block = inst.t1;
        fr.ip = 0;
        advance = false;
        break;
      case Opcode::Br: {
        total_[BR_INS] += 1;
        const bool taken = fr.regs[inst.a] != 0;
        const std::uint64_t branch_id = support::hash_combine(
            support::hash_combine(fr.fn_id, fr.block), fr.ip);
        const bool backward = inst.t1 <= fr.block;
        const bool predicted = bpred_.predict(branch_id, backward);
        bpred_.update(branch_id, taken);
        if (predicted != taken) {
          total_[BR_MSP] += 1;
          cycle_ += cfg_.mispredict_penalty;
          slots_used_ = 0;  // pipeline redirect
        }
        fr.prev_block = fr.block;
        fr.block = taken ? inst.t1 : inst.t2;
        fr.ip = 0;
        advance = false;
        break;
      }
      case Opcode::Call: {
        cycle_ += cfg_.call_overhead;
        slots_used_ = 0;
        std::array<std::int64_t, ir::kMaxCallArgs> vals{};
        for (unsigned i = 0; i < inst.nargs; ++i)
          vals[i] = fr.regs[inst.args[i]];
        fr.ip += 1;  // resume after the call on return
        Frame& cf = push_frame(inst.callee, inst.dst);  // may invalidate fr
        for (unsigned i = 0; i < cf.fn->num_args; ++i) cf.regs[i] = vals[i];
        advance = false;
        break;
      }
      case Opcode::Ret: {
        const std::int64_t value =
            inst.a == ir::kNoReg ? 0 : fr.regs[inst.a];
        const Reg ret_dst = fr.ret_dst;
        frame_cursor = fr.frame_base;
        stack.pop_back();
        if (stack.empty()) {
          final_ret = value;
        } else if (ret_dst != ir::kNoReg) {
          Frame& caller = stack.back();
          caller.regs[ret_dst] = value;
          caller.ready[ret_dst] = cycle_ + 1;
        }
        advance = false;
        break;
      }
    }

    if (advance) {
      if (ir::has_dst(inst))
        fr.ready[inst.dst] = cycle_ + result_latency;
      fr.ip += 1;
    }
  }

  total_[TOT_CYC] += cycle_ - cycles_before;

  RunResult rr;
  rr.ret = final_ret;
  rr.cycles = cycle_ - cycles_before;
  rr.instructions = executed_ - executed_before;
  rr.counters = total_ - before;
  return rr;
}

// --- the engine ------------------------------------------------------------
//
// Semantics are a transliteration of interpret() over the packed instruction
// arrays; any divergence in results, cycles, or counters is a bug
// (differential-tested in tests/test_sim_decoded.cpp). The superblock
// fusion shows up as *run-granular* bookkeeping: straight-line handlers
// never touch the retired-instruction count, TOT_INS, or the budget guard
// — ILC_END_RUN settles the whole run at the control transfer that ends
// it, and the catch block settles a partial run if a trap unwinds
// mid-block. The only observable difference this can make is *after* a
// TrapError: the budget trap fires at the end of the superblock that
// crossed the limit rather than on the exact crossing instruction (the
// trap itself, and all successful runs, are bit-identical).
//
// Dispatch is computed-goto threaded code: every handler ends in its own
// indirect jump through kLabels, so the host BTB learns per-handler
// successor patterns (this TU builds with -fno-crossjumping -fno-gcse so
// GCC keeps those jumps apart). The X-macro pins the label order to the
// ir::Opcode enumerator order — the label table indexes by opcode value,
// so the static_asserts below make any enum reordering a compile error
// here rather than a misdispatch at runtime.

#if !defined(__GNUC__)
#error "the simulator engine needs GNU labels-as-values (GCC or Clang)"
#endif

#define ILC_SIM_OPCODE_LIST(X)                                \
  X(Nop) X(Mov) X(LoadImm)                                    \
  X(Add) X(Sub) X(Mul) X(Div) X(Rem)                          \
  X(And) X(Or) X(Xor) X(Shl) X(Shr) X(Min) X(Max)             \
  X(Neg) X(Not)                                               \
  X(CmpEq) X(CmpNe) X(CmpLt) X(CmpLe) X(CmpGt) X(CmpGe)       \
  X(GlobalAddr) X(FrameAddr) X(Load) X(Store) X(Prefetch)     \
  X(Jump) X(Br) X(Ret) X(Call)

namespace {
enum : unsigned {
#define ILC_ORD(name) ilc_ord_##name,
  ILC_SIM_OPCODE_LIST(ILC_ORD)
#undef ILC_ORD
      ilc_ord_count
};
#define ILC_CHECK_ORD(name)                                         \
  static_assert(ilc_ord_##name == static_cast<unsigned>(Opcode::name), \
                "ILC_SIM_OPCODE_LIST out of sync with ir::Opcode");
ILC_SIM_OPCODE_LIST(ILC_CHECK_ORD)
#undef ILC_CHECK_ORD
static_assert(ilc_ord_count == static_cast<unsigned>(Opcode::Call) + 1,
              "ILC_SIM_OPCODE_LIST is missing opcodes");
}  // namespace

#define ILC_DISPATCH() goto* kLabels[static_cast<unsigned>(ip->op)]

// Scoreboard + issue: stall until `earliest`, then claim an issue slot
// (issue_width instructions share a cycle). Written branch-free: whether
// an instruction stalls is data-dependent and defeats the *host* branch
// predictor, so conditional moves beat the reference's if/else chain here.
#define ILC_ISSUE(earliest_expr)                            \
  do {                                                      \
    const std::uint64_t ilc_e = (earliest_expr);            \
    const bool ilc_stall = ilc_e > cycle;                   \
    const bool ilc_wrap = !ilc_stall & (slots >= issue_width); \
    cycle = ilc_stall ? ilc_e : cycle + ilc_wrap;           \
    slots = (ilc_stall | ilc_wrap) ? 1u : slots + 1u;       \
  } while (0)

// Retire the straight-line run [run_start, ip] in one step and apply the
// budget guard once per superblock. After this, run_start marks the run
// as consumed so the catch-block fix-up adds nothing.
#define ILC_END_RUN()                                                  \
  do {                                                                 \
    const std::uint64_t ilc_n =                                        \
        static_cast<std::uint64_t>(ip - run_start) + 1;                \
    executed += ilc_n;                                                 \
    total_[TOT_INS] += ilc_n;                                          \
    run_start = ip + 1;                                                \
    if (executed > budget_end)                                         \
      throw TrapError("instruction budget exhausted (runaway loop?)"); \
  } while (0)

// Inline in-range test; the cold out-of-line bounds_check re-checks and
// throws with the canonical trap message.
#define ILC_BOUNDS(addr, bytes)                                      \
  do {                                                               \
    if ((addr) < ir::MemoryImage::kNullGuard ||                      \
        (addr) + (bytes) > mem_size)                                 \
      bounds_check((addr), (bytes));                                 \
  } while (0)

// Two-source ALU op with a compile-time latency; `va`/`vb` are bound for
// the expression.
#define ILC_BINOP(name, lat, expr)                      \
  op_##name: {                                          \
    const ir::Reg ra = ip->a, rb = ip->b, rd = ip->dst; \
    ILC_ISSUE(std::max(ready[ra], ready[rb]));          \
    const std::int64_t va = regs[ra];                   \
    const std::int64_t vb = regs[rb];                   \
    regs[rd] = (expr);                                  \
    ready[rd] = cycle + (lat);                          \
    ++ip;                                               \
    ILC_DISPATCH();                                     \
  }

RunResult Simulator::execute(FuncId fn_id,
                             const std::vector<std::int64_t>& args) {
  const DecodedProgram& prog = *decoded_;
  ILC_CHECK_MSG(fn_id < prog.funcs.size(), "no function with id " << fn_id);

  const Counters before = total_;
  const std::uint64_t cycles_before = cycle_;
  const std::uint64_t executed_before = executed_;
  const std::uint64_t budget_end = executed_ + cfg_.max_instructions;

  // Config and image in locals so the inner loop never re-reads members
  // the compiler cannot prove loop-invariant.
  const std::uint32_t lat_alu = cfg_.lat_alu;
  const std::uint32_t lat_mul = cfg_.lat_mul;
  const std::uint32_t lat_div = cfg_.lat_div;
  const std::uint32_t issue_width = cfg_.issue_width;
  const std::uint32_t mispredict_penalty = cfg_.mispredict_penalty;
  const std::uint32_t call_overhead = cfg_.call_overhead;
  std::uint8_t* const mem = image_.bytes.data();
  const std::uint64_t mem_size = image_.bytes.size();
  const std::uint64_t* const gbase = image_.global_base.data();
  const std::uint64_t stack_limit = image_.stack_base + image_.stack_size;

  // Mutable machine state in locals; synced back on every exit path.
  std::uint64_t cycle = cycle_;
  std::uint32_t slots = slots_used_;
  std::uint64_t executed = executed_;
  std::uint64_t store_lo = store_lo_;
  std::uint64_t store_hi = store_hi_;

  if (frames_.size() < kMaxCallDepth) frames_.resize(kMaxCallDepth);
  std::size_t depth = 0;
  std::uint32_t reg_top = 0;
  std::uint64_t frame_cursor = image_.stack_base;

  // Current activation, cached in locals; refreshed only at call/return.
  const DecodedFunction* fnp = nullptr;
  const DecodedInstr* code_base = nullptr;
  const DecodedInstr* ip = nullptr;
  const DecodedInstr* run_start = nullptr;
  std::int64_t* regs = nullptr;
  std::uint64_t* ready = nullptr;
  std::uint64_t frame_base = 0;
  std::int64_t final_ret = 0;

  auto push_frame = [&](FuncId id, Reg ret_dst) {
    const DecodedFunction& fn = prog.funcs[id];
    if (depth >= kMaxCallDepth)
      throw TrapError("call depth exceeded in " + fn.name);
    if (reg_top + fn.num_regs > regstack_.size()) {
      const std::size_t need = std::max<std::size_t>(
          regstack_.size() * 2 + 64, reg_top + fn.num_regs);
      regstack_.resize(need);
      readystack_.resize(need);
      if (depth > 0) {  // growth moved the stacks; re-anchor the caller
        regs = regstack_.data() + frames_[depth - 1].reg_base;
        ready = readystack_.data() + frames_[depth - 1].reg_base;
      }
    }
    ExecFrame& fr = frames_[depth];
    fr.fn = &fn;
    fr.frame_base = frame_cursor;
    fr.reg_base = reg_top;
    fr.resume_ip = 0;
    fr.ret_dst = ret_dst;
    std::fill_n(regstack_.begin() + reg_top, fn.num_regs, 0);
    std::fill_n(readystack_.begin() + reg_top, fn.num_regs, 0);
    reg_top += fn.num_regs;
    frame_cursor += fn.frame_bytes;
    if (frame_cursor > stack_limit)
      throw TrapError("stack overflow in " + fn.name);
    ++depth;
  };

  auto activate = [&](const ExecFrame& fr) {
    fnp = fr.fn;
    code_base = fnp->code.data();
    regs = regstack_.data() + fr.reg_base;
    ready = readystack_.data() + fr.reg_base;
    frame_base = fr.frame_base;
  };

  {
    const DecodedFunction& fn = prog.funcs[fn_id];
    ILC_CHECK_MSG(args.size() == fn.num_args,
                  "arity mismatch calling " << fn.name);
    push_frame(fn_id, ir::kNoReg);
    activate(frames_[0]);
    for (std::size_t i = 0; i < args.size(); ++i) regs[i] = args[i];
    ip = code_base;  // entry block is block 0 at flat offset 0
    run_start = ip;
  }

  static const void* const kLabels[] = {
#define ILC_LABEL_ADDR(name) &&op_##name,
      ILC_SIM_OPCODE_LIST(ILC_LABEL_ADDR)
#undef ILC_LABEL_ADDR
  };

  try {
    ILC_DISPATCH();

    op_Nop: {
      ILC_ISSUE(0);
      ++ip;
      ILC_DISPATCH();
    }
    op_Mov: {
      const Reg ra = ip->a, rd = ip->dst;
      ILC_ISSUE(ready[ra]);
      regs[rd] = regs[ra];
      ready[rd] = cycle + lat_alu;
      ++ip;
      ILC_DISPATCH();
    }
    op_LoadImm: {
      const Reg rd = ip->dst;
      ILC_ISSUE(0);
      regs[rd] = ip->imm;
      ready[rd] = cycle + lat_alu;
      ++ip;
      ILC_DISPATCH();
    }

    // Arithmetic is inlined (same semantics as ir::fold_constant:
    // wrapping 64-bit, defined division edge cases, masked shifts).
    ILC_BINOP(Add, lat_alu,
              static_cast<std::int64_t>(static_cast<std::uint64_t>(va) +
                                        static_cast<std::uint64_t>(vb)))
    ILC_BINOP(Sub, lat_alu,
              static_cast<std::int64_t>(static_cast<std::uint64_t>(va) -
                                        static_cast<std::uint64_t>(vb)))
    ILC_BINOP(Mul, lat_mul,
              static_cast<std::int64_t>(static_cast<std::uint64_t>(va) *
                                        static_cast<std::uint64_t>(vb)))
    ILC_BINOP(Div, lat_div,
              vb == 0 ? 0 : (va == INT64_MIN && vb == -1 ? INT64_MIN : va / vb))
    ILC_BINOP(Rem, lat_div,
              vb == 0 ? va : (va == INT64_MIN && vb == -1 ? 0 : va % vb))
    ILC_BINOP(And, lat_alu, va& vb)
    ILC_BINOP(Or, lat_alu, va | vb)
    ILC_BINOP(Xor, lat_alu, va ^ vb)
    ILC_BINOP(Shl, lat_alu,
              static_cast<std::int64_t>(static_cast<std::uint64_t>(va)
                                        << (static_cast<std::uint64_t>(vb) &
                                            63)))
    ILC_BINOP(Shr, lat_alu,  // arithmetic
              va >> (static_cast<std::uint64_t>(vb) & 63))
    ILC_BINOP(Min, lat_alu, std::min(va, vb))
    ILC_BINOP(Max, lat_alu, std::max(va, vb))

    op_Neg: {
      const Reg ra = ip->a, rd = ip->dst;
      ILC_ISSUE(ready[ra]);
      regs[rd] =
          static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(regs[ra]));
      ready[rd] = cycle + lat_alu;
      ++ip;
      ILC_DISPATCH();
    }
    op_Not: {
      const Reg ra = ip->a, rd = ip->dst;
      ILC_ISSUE(ready[ra]);
      regs[rd] = ~regs[ra];
      ready[rd] = cycle + lat_alu;
      ++ip;
      ILC_DISPATCH();
    }

    ILC_BINOP(CmpEq, lat_alu, static_cast<std::int64_t>(va == vb))
    ILC_BINOP(CmpNe, lat_alu, static_cast<std::int64_t>(va != vb))
    ILC_BINOP(CmpLt, lat_alu, static_cast<std::int64_t>(va < vb))
    ILC_BINOP(CmpLe, lat_alu, static_cast<std::int64_t>(va <= vb))
    ILC_BINOP(CmpGt, lat_alu, static_cast<std::int64_t>(va > vb))
    ILC_BINOP(CmpGe, lat_alu, static_cast<std::int64_t>(va >= vb))

    op_GlobalAddr: {
      const Reg rd = ip->dst;
      ILC_ISSUE(0);
      regs[rd] =
          static_cast<std::int64_t>(gbase[static_cast<std::uint32_t>(ip->imm)]);
      ready[rd] = cycle + lat_alu;
      ++ip;
      ILC_DISPATCH();
    }
    op_FrameAddr: {
      const Reg rd = ip->dst;
      ILC_ISSUE(0);
      regs[rd] = static_cast<std::int64_t>(frame_base + ip->imm);
      ready[rd] = cycle + lat_alu;
      ++ip;
      ILC_DISPATCH();
    }

    op_Load: {
      const Reg ra = ip->a, rd = ip->dst;
      ILC_ISSUE(ready[ra]);
      const auto addr = static_cast<std::uint64_t>(regs[ra] + ip->imm);
      const unsigned bytes = ip->width_bytes;
      ILC_BOUNDS(addr, bytes);
      total_[LD_INS] += 1;
      const std::uint32_t lat = mem_access(addr, /*is_write=*/false);
      const std::uint64_t v = load_le(mem + addr, bytes);
      if (ip->is_ptr() || bytes == 8) {
        regs[rd] = static_cast<std::int64_t>(v);
      } else {
        // Sign-extend data loads narrower than 8 bytes.
        const unsigned shift = 64 - 8 * bytes;
        regs[rd] = static_cast<std::int64_t>(v << shift) >> shift;
      }
      ready[rd] = cycle + lat;
      ++ip;
      ILC_DISPATCH();
    }
    op_Store: {
      const Reg ra = ip->a, rb = ip->b;
      ILC_ISSUE(std::max(ready[ra], ready[rb]));
      const auto addr = static_cast<std::uint64_t>(regs[ra] + ip->imm);
      const unsigned bytes = ip->width_bytes;
      ILC_BOUNDS(addr, bytes);
      total_[SR_INS] += 1;
      // Stores retire through a store buffer: the cache access is
      // counted but does not stall the pipeline.
      mem_access(addr, /*is_write=*/true);
      store_le(mem + addr, static_cast<std::uint64_t>(regs[rb]), bytes);
      store_lo = std::min(store_lo, addr);
      store_hi = std::max(store_hi, addr + bytes);
      ++ip;
      ILC_DISPATCH();
    }
    op_Prefetch: {
      const Reg ra = ip->a;
      ILC_ISSUE(ready[ra]);
      const auto addr = static_cast<std::uint64_t>(regs[ra] + ip->imm);
      // Non-binding: out-of-range prefetches are dropped, in-range ones
      // warm the hierarchy without stalling.
      if (addr >= ir::MemoryImage::kNullGuard && addr + 8 <= mem_size)
        prefetch(addr);
      ++ip;
      ILC_DISPATCH();
    }

    op_Jump: {
      ILC_ISSUE(0);
      ILC_END_RUN();
      ip = code_base + ip->t1;
      run_start = ip;
      ILC_DISPATCH();
    }
    op_Br: {
      const Reg ra = ip->a;
      ILC_ISSUE(ready[ra]);
      total_[BR_INS] += 1;
      const bool taken = regs[ra] != 0;
      const auto branch_id = static_cast<std::uint64_t>(ip->imm);
      const bool predicted = bpred_.predict(branch_id, ip->backward());
      bpred_.update(branch_id, taken);
      // Simulated mispredicts are inherently unpredictable to the host
      // predictor too — keep the charge branch-free (pipeline redirect:
      // penalty cycles, restart the issue group).
      const bool missed = predicted != taken;
      total_[BR_MSP] += missed;
      cycle += missed ? mispredict_penalty : 0;
      slots = missed ? 0 : slots;
      ILC_END_RUN();
      ip = code_base + (taken ? ip->t1 : ip->t2);
      run_start = ip;
      ILC_DISPATCH();
    }
    op_Call: {
      const CallSite& cs = fnp->callsites[ip->t2];
      std::uint64_t earliest = 0;
      for (unsigned i = 0; i < cs.nargs; ++i)
        earliest = std::max(earliest, ready[cs.args[i]]);
      ILC_ISSUE(earliest);
      cycle += call_overhead;
      slots = 0;
      std::array<std::int64_t, ir::kMaxCallArgs> vals{};
      for (unsigned i = 0; i < cs.nargs; ++i) vals[i] = regs[cs.args[i]];
      ILC_END_RUN();
      frames_[depth - 1].resume_ip =
          static_cast<std::uint32_t>(ip - code_base) + 1;
      push_frame(ip->t1, ip->dst);  // may trap (depth / stack overflow)
      activate(frames_[depth - 1]);
      for (unsigned i = 0; i < fnp->num_args; ++i) regs[i] = vals[i];
      ip = code_base;
      run_start = ip;
      ILC_DISPATCH();
    }
    op_Ret: {
      const Reg ra = ip->a;
      ILC_ISSUE(ra == ir::kNoReg ? 0 : ready[ra]);
      const std::int64_t value = ra == ir::kNoReg ? 0 : regs[ra];
      ILC_END_RUN();
      --depth;
      const ExecFrame& finished = frames_[depth];
      frame_cursor = finished.frame_base;
      reg_top = finished.reg_base;
      if (depth == 0) {
        final_ret = value;
        goto exec_done;
      }
      const Reg ret_dst = finished.ret_dst;
      activate(frames_[depth - 1]);
      if (ret_dst != ir::kNoReg) {
        regs[ret_dst] = value;
        ready[ret_dst] = cycle + 1;
      }
      ip = code_base + frames_[depth - 1].resume_ip;
      run_start = ip;
      ILC_DISPATCH();
    }

  exec_done:
    cycle_ = cycle;
    slots_used_ = slots;
    executed_ = executed;
    store_lo_ = store_lo;
    store_hi_ = store_hi;
    total_[TOT_CYC] += cycle - cycles_before;

    RunResult rr;
    rr.ret = final_ret;
    rr.cycles = cycle - cycles_before;
    rr.instructions = executed - executed_before;
    rr.counters = total_ - before;
    return rr;
  } catch (...) {
    // A trap unwound mid-run: settle the partial straight-line run
    // [run_start, ip] the reference would have retired one by one (the
    // trapping instruction counts — the reference increments before
    // executing), then sync machine state so post-trap observations match.
    const std::ptrdiff_t part = (ip - run_start) + 1;
    if (part > 0) {
      executed += static_cast<std::uint64_t>(part);
      total_[TOT_INS] += static_cast<std::uint64_t>(part);
    }
    cycle_ = cycle;
    slots_used_ = slots;
    executed_ = executed;
    store_lo_ = store_lo;
    store_hi_ = store_hi;
    throw;
  }
}

#undef ILC_SIM_OPCODE_LIST
#undef ILC_DISPATCH
#undef ILC_ISSUE
#undef ILC_END_RUN
#undef ILC_BOUNDS
#undef ILC_BINOP

}  // namespace ilc::sim

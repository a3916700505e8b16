// The execution engine: a direct interpreter of ilc IR coupled to a
// scoreboarded single-issue timing model, the two-level cache hierarchy,
// and the branch predictor. Deterministic; collects PAPI-style counters.
//
// The Simulator owns persistent machine state (memory image, caches,
// predictor), so a program can be invoked repeatedly — which is exactly
// what the dynamic-optimization module needs to audit code versions
// across execution intervals.
//
// Built on a shared initial image instead of a module's own, a Simulator
// can also be restart()ed onto another module with the same memory
// layout, and is then in exactly the state of a freshly constructed one:
// memory back to the initial image, caches cold, predictor and clock
// reset, counters zero. Both engines track the lowest and highest byte
// their stores wrote (also when a run traps), and the restart copies the
// initial bytes back over that range only, so setting up a run costs in
// proportion to what the last run stored, not to the data the program
// declares. The search evaluator restarts one simulator per thread for
// every candidate it simulates.
//
// call()/run() execute a sim::DecodedProgram (flat pre-decoded instruction
// arrays) with computed-goto threaded dispatch. That is the only engine;
// every production caller runs it. The Simulator decodes module() itself,
// on the first engine call after construction, restart() or
// switch_module(), and owns that decoding until the next of those.
//
// call_reference()/run_reference() walk the ir::Instr trees directly,
// re-deriving use lists, branch ids, and widths per instruction. This
// tree-walker is the differential reference for the engine (tests) and
// the baseline of bench/sim_speed. It shares the memory image, caches,
// predictor, and clock with the engine, and must agree with it bit for
// bit: return value, cycles, instructions, and every counter. A Simulator
// that only runs the reference never decodes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/module.hpp"
#include "sim/branch_predictor.hpp"
#include "sim/cache.hpp"
#include "sim/counters.hpp"
#include "sim/decoded_program.hpp"
#include "sim/machine.hpp"

namespace ilc::sim {

/// Thrown on runtime faults: null/out-of-bounds access, call depth,
/// instruction budget exhaustion. Optimized code must never introduce one.
class TrapError : public std::runtime_error {
 public:
  explicit TrapError(const std::string& what) : std::runtime_error(what) {}
};

/// Result of one function invocation.
struct RunResult {
  std::int64_t ret = 0;          // return value (0 for void)
  std::uint64_t cycles = 0;      // cycles spent in this invocation
  std::uint64_t instructions = 0;
  Counters counters;             // deltas for this invocation
};

class Simulator {
 public:
  /// Runs `mod`, which the caller must keep alive.
  Simulator(const ir::Module& mod, const MachineConfig& cfg);

  /// A restartable simulator: runs `mod` against a copy of `initial`,
  /// which must be `mod`'s initial image (see initial_image) and is only
  /// read, so one image can serve many simulators.
  Simulator(const ir::Module& mod, const MachineConfig& cfg,
            std::shared_ptr<const ir::MemoryImage> initial);

  /// `mod`'s initial memory image, for the restartable constructor. Every
  /// initial image a Simulator builds, here or in the first constructor,
  /// counts on the `sim.image_builds` registry counter.
  static std::shared_ptr<const ir::MemoryImage> initial_image(
      const ir::Module& mod);

  /// Start over on `next`, as if constructed anew on it (see the file
  /// comment). Needs the restartable constructor. `next` must have the
  /// same memory layout (checked) and the same initializers (the caller's
  /// contract; Debug builds check the whole image) as the module the
  /// initial image was built from, and the caller must keep it alive.
  void restart(const ir::Module& next);

  /// Invoke a function by id with the given arguments.
  RunResult call(ir::FuncId fn, const std::vector<std::int64_t>& args = {});
  /// Invoke by name; throws if absent.
  RunResult call(const std::string& fn_name,
                 const std::vector<std::int64_t>& args = {});
  /// Invoke `main()` — the whole-program entry used by the harnesses.
  RunResult run();

  /// The same invocations on the tree-walking reference (see the file
  /// comment). For differential tests and bench/sim_speed only.
  RunResult call_reference(ir::FuncId fn,
                           const std::vector<std::int64_t>& args = {});
  RunResult run_reference();

  /// Cumulative counters since construction / last reset.
  const Counters& counters() const { return total_; }
  void reset_counters() { total_ = Counters{}; }

  /// Swap in a different module (e.g. a re-optimized code version) while
  /// keeping memory, caches, and predictor state — the multi-versioning
  /// primitive of the dynamic-optimization module. The new module must
  /// produce an identical memory layout (same globals, sizes, pointer
  /// width); throws otherwise. The caller must keep `next` alive.
  void switch_module(const ir::Module& next);

  const MachineConfig& config() const { return cfg_; }
  const ir::Module& module() const { return *mod_; }

 private:
  /// Reference-path activation record.
  struct Frame {
    const ir::Function* fn = nullptr;
    ir::FuncId fn_id = ir::kNoFunc;
    std::vector<std::int64_t> regs;
    std::vector<std::uint64_t> ready;  // scoreboard: cycle when reg is ready
    std::uint64_t frame_base = 0;
    ir::BlockId block = 0;
    ir::BlockId prev_block = 0;
    std::size_t ip = 0;
    ir::Reg ret_dst = ir::kNoReg;  // caller register receiving the result
  };

  /// Engine activation record, POD: registers and scoreboard live in
  /// the contiguous per-call stacks below (reg_base indexes both), so a
  /// simulated call allocates nothing after warmup.
  struct ExecFrame {
    const DecodedFunction* fn = nullptr;
    std::uint64_t frame_base = 0;
    std::uint32_t reg_base = 0;
    std::uint32_t resume_ip = 0;  // flat offset to resume at after a call
    ir::Reg ret_dst = ir::kNoReg;
  };

  /// The engine: threaded dispatch over the decoded program.
  RunResult execute(ir::FuncId fn, const std::vector<std::int64_t>& args);
  /// The tree-walking reference.
  RunResult interpret(ir::FuncId fn, const std::vector<std::int64_t>& args);

  /// Data-cache access; returns total load-to-use latency and updates
  /// counters. is_write distinguishes load/store miss counters.
  std::uint32_t mem_access(std::uint64_t addr, bool is_write);
  /// Software prefetch: moves lines like a load, but is invisible to the
  /// architectural counters (as on real PMUs).
  void prefetch(std::uint64_t addr);

  std::int64_t load_value(std::uint64_t addr, unsigned bytes, bool is_ptr) const;
  void store_value(std::uint64_t addr, std::int64_t value, unsigned bytes);
  void bounds_check(std::uint64_t addr, unsigned bytes) const;
  /// Throws unless `next` lays its memory out exactly like image_.
  void check_layout(const ir::Module& next, const char* what) const;

  const ir::Module* mod_;  // never null; replaced by switch_module, restart
  /// *mod_ decoded; empty until the first engine call on it.
  std::optional<DecodedProgram> decoded_;
  MachineConfig cfg_;
  ir::MemoryImage image_;
  /// The image restart() restores; null unless built restartable.
  std::shared_ptr<const ir::MemoryImage> initial_;
  /// Bytes [store_lo_, store_hi_) hold every store since the image was
  /// last initial (empty when store_lo_ >= store_hi_).
  std::uint64_t store_lo_ = UINT64_MAX;
  std::uint64_t store_hi_ = 0;
  Cache l1_;
  Cache l2_;
  BranchPredictor bpred_;
  Counters total_;
  std::uint64_t cycle_ = 0;        // monotone machine clock across calls
  std::uint32_t slots_used_ = 0;   // instructions issued in cycle_
  std::uint64_t executed_ = 0;

  // Engine scratch, reused across invocations (no allocation on the
  // simulated call path after warmup).
  std::vector<ExecFrame> frames_;
  std::vector<std::int64_t> regstack_;
  std::vector<std::uint64_t> readystack_;

  static constexpr unsigned kMaxCallDepth = 256;
};

}  // namespace ilc::sim

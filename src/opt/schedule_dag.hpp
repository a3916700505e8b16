// Intra-block dependence DAG shared between the list scheduler and the
// learned-scheduling case study (src/sched).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/instruction.hpp"

namespace ilc::opt {

/// Adjacency lists of nodes 0..n-1 in one flat array: list i is
/// targets[start[i] .. start[i + 1]).
struct EdgeLists {
  std::vector<std::size_t> start;
  std::vector<std::size_t> targets;

  std::span<const std::size_t> operator[](std::size_t i) const {
    return {targets.data() + start[i], start[i + 1] - start[i]};
  }
};

struct ScheduleDag {
  EdgeLists succs;  // each list ascending
  EdgeLists preds;
  std::vector<unsigned> height;  // critical-path height incl. own latency
};

/// Builds dependence DAGs block after block. The per-register tables and
/// the DAG's arrays keep their storage from one build to the next, so a
/// pass allocates them once per function rather than once per block.
class DagBuilder {
 public:
  /// The DAG over a terminator-free instruction list; valid until the
  /// next build.
  const ScheduleDag& build(std::span<const ir::Instr> insts);

 private:
  struct Reader {
    std::size_t inst;
    std::size_t next;  // next reader of the same register, or none
  };

  ScheduleDag dag_;
  // Indexed by register: the last definition, and the list in readers_ of
  // the reads since then (last_reader_ is read only while first_reader_
  // is set). def_of_ and first_reader_ hold none between builds.
  std::vector<std::size_t> def_of_;
  std::vector<std::size_t> first_reader_;
  std::vector<std::size_t> last_reader_;
  std::vector<Reader> readers_;
  std::vector<std::size_t> reads_since_store_;
  std::vector<std::size_t> cursor_;
};

/// Build the dependence DAG over a terminator-free instruction list.
ScheduleDag build_dag(const std::vector<ir::Instr>& insts);

/// The scheduling cost model's latency for one instruction.
unsigned sched_latency(const ir::Instr& inst);

}  // namespace ilc::opt

// The knowledge base (paper Section III-E): a standardized store of
// optimization-experiment results — program + machine characterizations,
// the optimization configuration tried, and what it measured. The paper
// argues for a documented standard format so tools can exchange training
// data; ours is a versioned CSV dialect (one record per row, vector-valued
// fields joined with ';').
//
// A KnowledgeBase is a plain record list in insertion order: the training
// set of the controller, the seed bank and the figure benches, and the
// CSV form records are imported from and exported to. Keyed lookup and
// replacement live in kbstore::Store.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/counters.hpp"

namespace ilc::kb {

/// One optimization experiment: configuration -> measurement.
struct ExperimentRecord {
  std::string program;
  std::string machine;
  std::string kind;    // "sequence" (Fig. 2 space) or "flags" (Fig. 3/4)
  std::string config;  // comma-joined pass names, or decimal flag encoding

  std::uint64_t cycles = 0;
  std::uint64_t code_size = 0;
  std::uint64_t instructions = 0;
  sim::Counters counters;

  std::vector<double> static_features;
  std::vector<double> dynamic_features;
};

class KnowledgeBase {
 public:
  void add(ExperimentRecord rec);
  const std::vector<ExperimentRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// All records of one program (optionally restricted by kind).
  std::vector<const ExperimentRecord*> for_program(
      const std::string& program, const std::string& kind = "") const;

  /// Record with minimum cycles for a program (nullptr if none).
  const ExperimentRecord* best_for_program(const std::string& program,
                                           const std::string& kind = "") const;

  /// Distinct program names in insertion order.
  std::vector<std::string> programs() const;

  // --- the standard format -------------------------------------------
  std::string serialize() const;
  static std::optional<KnowledgeBase> parse(const std::string& text);
  /// Atomic: writes to a temp file and renames over `path`, so a crash
  /// mid-save can never truncate an existing knowledge base.
  bool save(const std::string& path) const;
  static std::optional<KnowledgeBase> load(const std::string& path);

 private:
  std::vector<ExperimentRecord> records_;
};

}  // namespace ilc::kb

// Knowledge-base population harness: runs the "significant training
// period" the paper describes (Section III-C) — profiling runs, sequence
// searches, and flag searches per program — and stores everything in the
// standard format. Shared by the benches, examples, and tests.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ir/module.hpp"
#include "kb/knowledge_base.hpp"
#include "kbstore/store.hpp"
#include "sim/machine.hpp"

namespace ilc::ctrl {

struct SuiteProgram {
  std::string name;
  const ir::Module* module = nullptr;
};

/// Consumer of experiment records as they are produced. Streaming lets a
/// long training period persist incrementally (e.g. into a
/// kbstore::Store) instead of materializing everything in memory first.
using RecordSink = std::function<void(kb::ExperimentRecord)>;

/// Profile a program at -O0: counters, static and dynamic features.
kb::ExperimentRecord make_profile_record(const std::string& name,
                                         const ir::Module& mod,
                                         const sim::MachineConfig& machine);

/// Full training period over a suite — profile + sequence + flag records
/// per program, streamed to `sink` as each experiment completes.
/// Deterministic in `seed`: the sink receives exactly the records
/// build_knowledge_base would store, in the same order.
void stream_training_records(const std::vector<SuiteProgram>& suite,
                             const sim::MachineConfig& machine,
                             unsigned sequence_budget, unsigned flag_budget,
                             std::uint64_t seed, const RecordSink& sink);

/// Full training period over a suite: profile + sequence + flag records
/// per program. Deterministic in `seed`.
kb::KnowledgeBase build_knowledge_base(const std::vector<SuiteProgram>& suite,
                                       const sim::MachineConfig& machine,
                                       unsigned sequence_budget,
                                       unsigned flag_budget,
                                       std::uint64_t seed);

/// Training period streamed straight into a durable store: each record is
/// WAL-appended as its simulation finishes, so a crash mid-training keeps
/// every acknowledged experiment instead of losing the whole run.
void build_store(kbstore::Store& store, const std::vector<SuiteProgram>& suite,
                 const sim::MachineConfig& machine, unsigned sequence_budget,
                 unsigned flag_budget, std::uint64_t seed);

}  // namespace ilc::ctrl

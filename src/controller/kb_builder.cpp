#include "controller/kb_builder.hpp"

#include "features/features.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "search/evaluator.hpp"
#include "search/space.hpp"
#include "search/strategies.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"

namespace ilc::ctrl {

namespace {

obs::Histogram& h_program_build_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("ctrl.program_build_us");
  return h;
}

}  // namespace

kb::ExperimentRecord make_profile_record(const std::string& name,
                                         const ir::Module& mod,
                                         const sim::MachineConfig& machine) {
  sim::Simulator sim(mod, machine);
  const sim::RunResult rr = sim.run();
  kb::ExperimentRecord rec;
  rec.program = name;
  rec.machine = machine.name;
  rec.kind = "profile";
  rec.config = "O0";
  rec.cycles = rr.cycles;
  rec.code_size = mod.code_size();
  rec.instructions = rr.instructions;
  rec.counters = rr.counters;
  rec.static_features = feat::extract_static(mod);
  rec.dynamic_features = feat::extract_dynamic(rr.counters);
  return rec;
}

namespace {

void stream_sequence_search_records(const RecordSink& sink,
                                    const std::string& name,
                                    const ir::Module& mod,
                                    const sim::MachineConfig& machine,
                                    const search::SequenceSpace& space,
                                    support::Rng& rng, unsigned budget) {
  search::Evaluator eval(mod, machine);
  const auto static_features = feat::extract_static(mod);
  for (unsigned i = 0; i < budget; ++i) {
    const auto seq = space.sample(rng);
    const auto res = eval.eval_sequence(seq);
    kb::ExperimentRecord rec;
    rec.program = name;
    rec.machine = machine.name;
    rec.kind = "sequence";
    rec.config = search::sequence_to_string(seq);
    rec.cycles = res.cycles;
    rec.code_size = res.code_size;
    rec.instructions = res.instructions;
    rec.counters = res.counters;
    rec.static_features = static_features;
    sink(std::move(rec));
  }
}

void stream_flag_search_records(const RecordSink& sink,
                                const std::string& name,
                                const ir::Module& mod,
                                const sim::MachineConfig& machine,
                                support::Rng& rng, unsigned budget) {
  search::Evaluator eval(mod, machine);
  const auto static_features = feat::extract_static(mod);
  for (const auto& pt : search::flag_search(eval, rng, budget)) {
    kb::ExperimentRecord rec;
    rec.program = name;
    rec.machine = machine.name;
    rec.kind = "flags";
    rec.config = std::to_string(pt.flags.encode());
    rec.cycles = pt.result.cycles;
    rec.code_size = pt.result.code_size;
    rec.instructions = pt.result.instructions;
    rec.counters = pt.result.counters;
    rec.static_features = static_features;
    rec.dynamic_features = feat::extract_dynamic(pt.result.counters);
    sink(std::move(rec));
  }
}

}  // namespace

void stream_training_records(const std::vector<SuiteProgram>& suite,
                             const sim::MachineConfig& machine,
                             unsigned sequence_budget, unsigned flag_budget,
                             std::uint64_t seed, const RecordSink& sink) {
  support::Rng root(seed);
  const search::SequenceSpace space;
  // The per-program fork is keyed by the number of records emitted so
  // far, matching the historical base.size()-keyed forks bit-for-bit.
  std::size_t emitted = 0;
  const RecordSink counting = [&](kb::ExperimentRecord rec) {
    ++emitted;
    sink(std::move(rec));
  };
  for (const SuiteProgram& prog : suite) {
    obs::Span span("ctrl.train_program");
    span.annotate("program", prog.name);
    obs::ScopedTimerUs timer(h_program_build_us());
    support::Rng rng = root.fork(emitted + 1);
    counting(make_profile_record(prog.name, *prog.module, machine));
    if (sequence_budget > 0)
      stream_sequence_search_records(counting, prog.name, *prog.module,
                                     machine, space, rng, sequence_budget);
    if (flag_budget > 0)
      stream_flag_search_records(counting, prog.name, *prog.module, machine,
                                 rng, flag_budget);
  }
}

kb::KnowledgeBase build_knowledge_base(const std::vector<SuiteProgram>& suite,
                                       const sim::MachineConfig& machine,
                                       unsigned sequence_budget,
                                       unsigned flag_budget,
                                       std::uint64_t seed) {
  kb::KnowledgeBase base;
  stream_training_records(
      suite, machine, sequence_budget, flag_budget, seed,
      [&base](kb::ExperimentRecord rec) { base.add(std::move(rec)); });
  return base;
}

void build_store(kbstore::Store& store, const std::vector<SuiteProgram>& suite,
                 const sim::MachineConfig& machine, unsigned sequence_budget,
                 unsigned flag_budget, std::uint64_t seed) {
  stream_training_records(
      suite, machine, sequence_budget, flag_budget, seed,
      [&store](kb::ExperimentRecord rec) { store.append(std::move(rec)); });
  store.sync();
}

}  // namespace ilc::ctrl

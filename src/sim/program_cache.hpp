// A stub of the retired process-wide decoded-program cache.
//
// Each sim::Simulator now decodes the module it runs on its first engine
// call, and nothing keeps decoded programs between simulators, so there is
// nothing to clear. The tuner benchmark (tunerbench/tuner_bench.cpp) still
// includes this header and calls clear() before each pass; the benchmark
// change that drops those three calls deletes this header too. Nothing in
// src/, bench/, examples/ or tests/ includes it.
#pragma once

namespace ilc::sim {

class ProgramCache {
 public:
  static ProgramCache& instance() {
    static ProgramCache cache;
    return cache;
  }

  void clear() {}
};

}  // namespace ilc::sim

// Structural well-formedness checks. Run after construction and after
// every optimization pass in testing; the property "verify(optimized)
// holds for every pass × workload" is one of the core test suites.
#pragma once

#include <string>

#include "ir/module.hpp"

namespace ilc::ir {

/// The most registers a function may declare. Per-register tables in
/// analyses, passes and the simulator are sized by num_regs, so the bound
/// keeps one uploaded module from costing gigabytes. Stock workloads stay
/// below 300 even after long pass sequences.
inline constexpr unsigned kMaxRegs = 1u << 16;

/// Returns an empty string if well-formed, else a diagnostic message.
std::string verify(const Function& fn, const Module& mod);
std::string verify(const Module& mod);

}  // namespace ilc::ir

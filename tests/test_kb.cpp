// Knowledge-base tests: record bookkeeping, queries, and the standard
// text format round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "kb/knowledge_base.hpp"
#include "support/rng.hpp"

namespace {

using namespace ilc;

kb::ExperimentRecord sample(const std::string& program, std::uint64_t cycles,
                            const std::string& kind = "sequence") {
  kb::ExperimentRecord r;
  r.program = program;
  r.machine = "amd-like";
  r.kind = kind;
  r.config = kind == "sequence" ? "constprop,dce,licm,peephole,schedule"
                                : "1234";
  r.cycles = cycles;
  r.code_size = 100;
  r.instructions = cycles / 2;
  r.counters[sim::L1_TCM] = 7;
  r.static_features = {1.5, -2.25, 0.0};
  r.dynamic_features = {3.0, 0.125};
  return r;
}

TEST(Kb, QueriesFilterByProgramAndKind) {
  kb::KnowledgeBase base;
  base.add(sample("a", 100));
  base.add(sample("a", 90));
  base.add(sample("b", 50));
  base.add(sample("a", 80, "flags"));
  EXPECT_EQ(base.for_program("a").size(), 3u);
  EXPECT_EQ(base.for_program("a", "sequence").size(), 2u);
  EXPECT_EQ(base.for_program("c").size(), 0u);
  EXPECT_EQ(base.programs(), (std::vector<std::string>{"a", "b"}));
}

TEST(Kb, BestForProgramPicksMinimumCycles) {
  kb::KnowledgeBase base;
  base.add(sample("a", 100));
  base.add(sample("a", 90));
  base.add(sample("a", 95));
  const auto* best = base.best_for_program("a");
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->cycles, 90u);
  EXPECT_EQ(base.best_for_program("zzz"), nullptr);
}

TEST(Kb, SerializeParseRoundTrip) {
  kb::KnowledgeBase base;
  base.add(sample("prog_one", 1234));
  base.add(sample("prog,two \"quoted\"", 5678, "flags"));
  const std::string text = base.serialize();
  const auto parsed = kb::KnowledgeBase::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  const auto& r0 = parsed->records()[0];
  EXPECT_EQ(r0.program, "prog_one");
  EXPECT_EQ(r0.cycles, 1234u);
  EXPECT_EQ(r0.counters[sim::L1_TCM], 7u);
  EXPECT_EQ(r0.static_features, (std::vector<double>{1.5, -2.25, 0.0}));
  EXPECT_EQ(r0.dynamic_features, (std::vector<double>{3.0, 0.125}));
  const auto& r1 = parsed->records()[1];
  EXPECT_EQ(r1.program, "prog,two \"quoted\"");
  EXPECT_EQ(r1.kind, "flags");
}

TEST(Kb, ParseRejectsGarbage) {
  EXPECT_FALSE(kb::KnowledgeBase::parse("not a kb").has_value());
  EXPECT_FALSE(kb::KnowledgeBase::parse("").has_value());
}

TEST(Kb, ParseRejectsBadVersionHeader) {
  kb::KnowledgeBase base;
  base.add(sample("a", 1));
  std::string text = base.serialize();
  // Same structure, wrong version tag.
  text.replace(text.find("ilc-kb v1"), 9, "ilc-kb v9");
  EXPECT_FALSE(kb::KnowledgeBase::parse(text).has_value());
}

// Malformed data rows must yield nullopt, never throw or crash.
TEST(Kb, ParseRejectsMalformedRows) {
  kb::KnowledgeBase base;
  base.add(sample("a", 123));
  const std::string good = base.serialize();

  // Truncated mid-row (chop the last 20 characters).
  EXPECT_FALSE(
      kb::KnowledgeBase::parse(good.substr(0, good.size() - 20)).has_value());

  const std::string header = good.substr(0, good.find('\n', good.find('\n') + 1) + 1);
  // Wrong column count.
  EXPECT_FALSE(kb::KnowledgeBase::parse(header + "a,b,c\n").has_value());
  // Non-numeric cycles / code_size / instructions.
  EXPECT_FALSE(kb::KnowledgeBase::parse(
                   header + "p,m,sequence,dce,NaN-cycles,1,2,,,\n")
                   .has_value());
  EXPECT_FALSE(kb::KnowledgeBase::parse(
                   header + "p,m,sequence,dce,1,12kb,2,,,\n")
                   .has_value());
  EXPECT_FALSE(kb::KnowledgeBase::parse(
                   header + "p,m,sequence,dce,1,2,-3,,,\n")
                   .has_value());
  // Non-numeric counter / feature cells.
  EXPECT_FALSE(kb::KnowledgeBase::parse(
                   header + "p,m,sequence,dce,1,2,3,4;x;6,,\n")
                   .has_value());
  EXPECT_FALSE(kb::KnowledgeBase::parse(
                   header + "p,m,sequence,dce,1,2,3,,1.5;oops,\n")
                   .has_value());
  // The well-formed text still parses (the helpers above really are the
  // only difference).
  EXPECT_TRUE(kb::KnowledgeBase::parse(good).has_value());
}

// Property test: any records survive serialize -> parse bit-exactly.
TEST(Kb, SerializeParseRoundTripProperty) {
  support::Rng rng(20080601);
  for (int trial = 0; trial < 25; ++trial) {
    kb::KnowledgeBase base;
    const unsigned n = 1 + static_cast<unsigned>(rng.next_below(8));
    for (unsigned i = 0; i < n; ++i) {
      kb::ExperimentRecord r;
      r.program = "prog-" + std::to_string(rng.next_below(5));
      r.machine = rng.next_below(2) ? "amd-like" : "c6713-like";
      r.kind = rng.next_below(2) ? "sequence" : "flags";
      r.config = rng.next_below(2) ? "licm,dce,\"quoted, comma\"" : "777";
      r.cycles = rng.next_u64() >> (rng.next_below(40));
      r.code_size = rng.next_below(100000);
      r.instructions = rng.next_below(1u << 30);
      for (unsigned c = 0; c < sim::kNumCounters; ++c)
        r.counters.v[c] = rng.next_below(1u << 20);
      const unsigned nf = static_cast<unsigned>(rng.next_below(6));
      for (unsigned f = 0; f < nf; ++f)
        r.static_features.push_back(rng.next_double() * 100.0 - 50.0);
      const unsigned nd = static_cast<unsigned>(rng.next_below(4));
      for (unsigned f = 0; f < nd; ++f)
        r.dynamic_features.push_back(rng.next_double());
      base.add(std::move(r));
    }

    const auto parsed = kb::KnowledgeBase::parse(base.serialize());
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      const auto& a = base.records()[i];
      const auto& b = parsed->records()[i];
      EXPECT_EQ(a.program, b.program);
      EXPECT_EQ(a.machine, b.machine);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.config, b.config);
      EXPECT_EQ(a.cycles, b.cycles);
      EXPECT_EQ(a.code_size, b.code_size);
      EXPECT_EQ(a.instructions, b.instructions);
      EXPECT_EQ(a.counters.v, b.counters.v);
      EXPECT_EQ(a.static_features, b.static_features);
      EXPECT_EQ(a.dynamic_features, b.dynamic_features);
    }
  }
}

// save() must be atomic: overwrite via temp + rename, no droppings.
TEST(Kb, SaveIsAtomicAndLeavesNoTempFile) {
  const std::string path = "/tmp/ilc_kb_test_atomic.csv";
  kb::KnowledgeBase first;
  first.add(sample("a", 1));
  ASSERT_TRUE(first.save(path));

  kb::KnowledgeBase second;
  second.add(sample("b", 2));
  second.add(sample("c", 3));
  ASSERT_TRUE(second.save(path));  // replaces the old content atomically

  std::ifstream probe(path + ".tmp");
  EXPECT_FALSE(probe.good());
  const auto loaded = kb::KnowledgeBase::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  std::remove(path.c_str());

  // An unwritable destination fails cleanly and leaves no temp file.
  EXPECT_FALSE(second.save("/nonexistent-dir/kb.csv"));
  std::ifstream tmp("/nonexistent-dir/kb.csv.tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(Kb, SaveLoadFile) {
  kb::KnowledgeBase base;
  base.add(sample("a", 42));
  const std::string path = "/tmp/ilc_kb_test.csv";
  ASSERT_TRUE(base.save(path));
  const auto loaded = kb::KnowledgeBase::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->records()[0].cycles, 42u);
  std::remove(path.c_str());
}

TEST(Kb, LoadMissingFileIsNullopt) {
  EXPECT_FALSE(kb::KnowledgeBase::load("/tmp/definitely_missing_kb.csv")
                   .has_value());
}

}  // namespace

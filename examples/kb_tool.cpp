// kb_tool — build, save, load, and inspect knowledge bases in the
// standard format (paper Section III-E: "it is important to build a
// standardized database to store learning data in order to facilitate the
// communication between machine learning components, optimization
// algorithms, compiler and instrumentation tools ...").
//
//   $ ./kb_tool build my.kb 30          # training period -> my.kb (CSV)
//   $ ./kb_tool build-store my.kbd 30   # training period -> durable store,
//                                       # each record WAL-appended as it lands
//   $ ./kb_tool summary my.kb           # per-program best (CSV or store dir)
//   $ ./kb_tool predict my.kb mcf_lite  # one-shot prediction from the file
//   $ ./kb_tool import my.kb my.kbd     # legacy CSV -> durable store
//   $ ./kb_tool export my.kbd my.kb     # durable store -> legacy CSV
//   $ ./kb_tool wal-dump my.kbd         # frame-level WAL inspector
//   $ ./kb_tool repl-status my.kbd [leader-dir]
//                                       # durable WalPosition (generation /
//                                       # seq / chain CRC); with a leader
//                                       # dir, follower lag + divergence
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "controller/controller.hpp"
#include "controller/kb_builder.hpp"
#include "kbstore/log_format.hpp"
#include "kbstore/store.hpp"
#include "repl/ship.hpp"
#include "search/evaluator.hpp"
#include "support/table.hpp"
#include "workloads/workloads.hpp"

using namespace ilc;

namespace {

/// What recovery found plus how the write path behaved: records replayed
/// (snapshot + WAL), torn-tail bytes truncated, live/dead ratio, and the
/// flush/compaction counters.
void print_store_stats(const kbstore::Store& store) {
  const kbstore::RecoveryInfo info = store.recovery();
  const kbstore::StoreStats stats = store.stats();
  std::printf(
      "  recovery: %zu records replayed (%zu snapshot + %zu wal)",
      info.snapshot_records + info.wal_records, info.snapshot_records,
      info.wal_records);
  if (info.torn_tail)
    std::printf(", torn tail: %llu bytes truncated",
                static_cast<unsigned long long>(info.torn_bytes));
  if (info.stale_wal) std::printf(", stale wal discarded");
  std::printf("\n");
  const double ratio =
      stats.live ? static_cast<double>(stats.dead) /
                       static_cast<double>(stats.live)
                 : 0.0;
  std::printf(
      "  store: %zu live / %zu dead records (dead/live %.2f), "
      "%llu appends, %llu flushes, %llu compactions, wal %llu bytes\n",
      stats.live, stats.dead, ratio,
      static_cast<unsigned long long>(stats.appends),
      static_cast<unsigned long long>(stats.flushes),
      static_cast<unsigned long long>(stats.compactions),
      static_cast<unsigned long long>(stats.wal_bytes));
}

/// Load a knowledge base from either format: a kbstore directory (crash
/// recovery runs as part of open) or a legacy CSV file.
std::optional<kb::KnowledgeBase> load_any(const char* path) {
  if (std::filesystem::is_directory(path)) {
    auto store = kbstore::Store::open(path);
    if (!store) return std::nullopt;
    return store->export_kb();
  }
  return kb::KnowledgeBase::load(path);
}

int cmd_build(const char* path, unsigned budget) {
  std::vector<wl::Workload> suite = wl::make_suite();
  std::vector<ctrl::SuiteProgram> programs;
  for (const auto& w : suite) programs.push_back({w.name, &w.module});
  const kb::KnowledgeBase base = ctrl::build_knowledge_base(
      programs, sim::amd_like(), /*sequence_budget=*/budget,
      /*flag_budget=*/budget, /*seed=*/2008);
  if (!base.save(path)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::printf("wrote %zu records for %zu programs to %s\n", base.size(),
              base.programs().size(), path);
  return 0;
}

int cmd_build_store(const char* dir, unsigned budget) {
  kbstore::RecoveryInfo info;
  auto store = kbstore::Store::open(dir, {}, &info);
  if (!store) {
    std::fprintf(stderr, "cannot open store at %s\n", dir);
    return 1;
  }
  std::vector<wl::Workload> suite = wl::make_suite();
  std::vector<ctrl::SuiteProgram> programs;
  for (const auto& w : suite) programs.push_back({w.name, &w.module});
  const std::size_t before = store->size();
  ctrl::build_store(*store, programs, sim::amd_like(),
                    /*sequence_budget=*/budget, /*flag_budget=*/budget,
                    /*seed=*/2008);
  std::printf("recovered %zu records, streamed %zu new; store now holds "
              "%zu records\n",
              before, store->size() - before, store->size());
  print_store_stats(*store);
  return 0;
}

int cmd_import(const char* csv, const char* dir) {
  const auto base = kb::KnowledgeBase::load(csv);
  if (!base) {
    std::fprintf(stderr, "cannot parse %s as an ilc knowledge base\n", csv);
    return 1;
  }
  auto store = kbstore::Store::open(dir);
  if (!store || !store->import_records(*base)) {
    std::fprintf(stderr, "cannot import into store at %s\n", dir);
    return 1;
  }
  std::printf("imported %zu records into %s (%zu total)\n", base->size(), dir,
              store->size());
  print_store_stats(*store);
  return 0;
}

int cmd_export(const char* dir, const char* csv) {
  auto store = kbstore::Store::open(dir);
  if (!store) {
    std::fprintf(stderr, "cannot open store at %s\n", dir);
    return 1;
  }
  const kb::KnowledgeBase base = store->export_kb();
  if (!base.save(csv)) {
    std::fprintf(stderr, "cannot write %s\n", csv);
    return 1;
  }
  std::printf("exported %zu records from %s to %s\n", base.size(), dir, csv);
  return 0;
}

int cmd_summary(const char* path) {
  const auto base = load_any(path);
  if (!base) {
    std::fprintf(stderr, "cannot parse %s as an ilc knowledge base\n", path);
    return 1;
  }
  support::Table table({"program", "records", "best sequence cycles",
                        "best flag setting", "flag cycles"});
  for (const auto& program : base->programs()) {
    const auto* best_seq = base->best_for_program(program, "sequence");
    const auto* best_flags = base->best_for_program(program, "flags");
    table.add_row(
        {program,
         support::Table::num(
             static_cast<long long>(base->for_program(program).size())),
         best_seq ? support::Table::num(
                        static_cast<long long>(best_seq->cycles))
                  : "-",
         best_flags ? opt::OptFlags::decode(static_cast<std::uint32_t>(
                          std::stoul(best_flags->config)))
                          .to_string()
                    : "-",
         best_flags ? support::Table::num(
                          static_cast<long long>(best_flags->cycles))
                    : "-"});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_predict(const char* path, const char* target) {
  const auto base = load_any(path);
  if (!base) {
    std::fprintf(stderr, "cannot parse %s\n", path);
    return 1;
  }
  wl::Workload w = wl::make_workload(target);
  const auto profile =
      ctrl::make_profile_record(target, w.module, sim::amd_like());
  ctrl::CounterModel model(*base, target, "amd-like");
  const opt::OptFlags flags = model.predict(profile.dynamic_features);
  std::printf("nearest program: %s\npredicted setting: %s\n",
              model.nearest_program().c_str(), flags.to_string().c_str());
  search::Evaluator eval(w.module, sim::amd_like());
  const auto o0 = eval.eval_flags(opt::o0_flags());
  const auto pc = eval.eval_flags(flags);
  std::printf("speedup over O0: %.2fx\n",
              static_cast<double>(o0.cycles) / static_cast<double>(pc.cycles));
  return 0;
}

/// Frame-level WAL inspector: what replication ships and recovery
/// replays, one line per frame — generation, sequence, op, key, CRC
/// health — plus an honest report of any torn tail. Reads the file
/// directly (no Store::open), so it works on stores a crash just tore.
/// One walk decodes each intact frame once; a damaged frame it stops at
/// gets the last line.
int cmd_wal_dump(const char* dir) {
  const std::string path = std::string(dir) + "/wal.ilc";
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream os;
  os << f.rdbuf();
  const std::string bytes = os.str();

  if (bytes.size() < kbstore::kHeaderSize) {
    std::printf("%s: %zu bytes — shorter than a WAL header (torn create "
                "or mid-recreation)\n",
                path.c_str(), bytes.size());
    return 1;
  }
  const auto generation = kbstore::read_header(bytes, kbstore::kWalType);
  if (!generation) {
    std::printf("%s: not a WAL (bad magic or type byte)\n", path.c_str());
    return 1;
  }
  std::printf("%s: generation %llu, %zu bytes\n", path.c_str(),
              static_cast<unsigned long long>(*generation), bytes.size());

  support::Table table({"seq", "offset", "bytes", "op", "key", "crc"});
  std::size_t frames = 0;
  const auto add_row = [&](const kbstore::FrameBounds& fb, std::string op,
                           std::string key, std::string health) {
    table.add_row({support::Table::num(static_cast<long long>(frames++)),
                   support::Table::num(static_cast<long long>(fb.offset)),
                   support::Table::num(static_cast<long long>(fb.size())),
                   std::move(op), std::move(key), std::move(health)});
  };
  const kbstore::WalkedFrames walked = kbstore::walk_frames(
      bytes, kbstore::kHeaderSize,
      [&](const kbstore::FrameBounds& fb, kbstore::LogRecord&& lr) {
        add_row(fb, lr.op == kbstore::Op::Upsert ? "upsert" : "append",
                lr.rec.program + "|" + lr.rec.machine + "|" + lr.rec.kind,
                "ok");
      });
  if (walked.damaged)
    add_row(*walked.damaged, "?", "-",
            walked.stop == kbstore::FrameStatus::BadCrc ? "BAD CRC"
                                                        : "BAD DECODE");
  std::printf("%s", table.render().c_str());

  if (walked.clean()) {
    std::printf("%zu frames, clean tail\n", frames);
  } else {
    std::printf("%zu frames, %llu intact bytes; %llu torn/corrupt bytes at "
                "the tail (recovery would truncate here)\n",
                frames, static_cast<unsigned long long>(walked.good_bytes),
                static_cast<unsigned long long>(bytes.size() -
                                                walked.good_bytes));
  }
  return walked.clean() ? 0 : 1;
}

/// Replication status from disk: the store's durable WalPosition — the
/// exact identity replication resumes from and promotion chooses by —
/// and, given the leader's directory, the follower's lag and a
/// byte-divergence verdict. Reads through ShipSource (flushed bytes
/// only, no Store locks), so it is safe to run against a live store.
int cmd_repl_status(const char* dir, const char* leader_dir) {
  const auto pos = repl::ShipSource(dir).position();
  if (!pos) {
    std::fprintf(stderr, "cannot read a WAL position from %s\n", dir);
    return 1;
  }
  std::printf("%s: generation=%llu seq=%llu chain_crc=%08x\n", dir,
              static_cast<unsigned long long>(pos->generation),
              static_cast<unsigned long long>(pos->seq), pos->chain_crc);
  if (leader_dir == nullptr) return 0;

  const auto lpos = repl::ShipSource(leader_dir).position();
  if (!lpos) {
    std::fprintf(stderr, "cannot read a WAL position from %s\n", leader_dir);
    return 1;
  }
  std::printf("%s: generation=%llu seq=%llu chain_crc=%08x (leader)\n",
              leader_dir, static_cast<unsigned long long>(lpos->generation),
              static_cast<unsigned long long>(lpos->seq), lpos->chain_crc);
  if (pos->generation == lpos->generation) {
    if (pos->seq > lpos->seq) {
      std::printf("lag: follower is AHEAD by %llu frames (split-brain — a "
                  "leader would reject this follower)\n",
                  static_cast<unsigned long long>(pos->seq - lpos->seq));
    } else {
      std::printf("lag: %llu frames behind the leader\n",
                  static_cast<unsigned long long>(lpos->seq - pos->seq));
    }
  } else {
    std::printf("lag: generations differ (follower %llu vs leader %llu) — "
                "snapshot bootstrap pending or stale leader\n",
                static_cast<unsigned long long>(pos->generation),
                static_cast<unsigned long long>(lpos->generation));
  }
  const auto div = repl::divergence(leader_dir, dir);
  if (div)
    std::printf("divergence: %s\n", div->c_str());
  else
    std::printf("divergence: none (files byte-identical)\n");
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: kb_tool build <file> [budget]\n"
               "       kb_tool build-store <dir> [budget]\n"
               "       kb_tool summary <file-or-dir>\n"
               "       kb_tool predict <file-or-dir> <workload>\n"
               "       kb_tool import <csv-file> <store-dir>\n"
               "       kb_tool export <store-dir> <csv-file>\n"
               "       kb_tool wal-dump <store-dir>\n"
               "       kb_tool repl-status <store-dir> [leader-dir]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage();
    return 2;
  }
  if (std::strcmp(argv[1], "build") == 0)
    return cmd_build(argv[2],
                     argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 30);
  if (std::strcmp(argv[1], "build-store") == 0)
    return cmd_build_store(
        argv[2], argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 30);
  if (std::strcmp(argv[1], "summary") == 0) return cmd_summary(argv[2]);
  if (std::strcmp(argv[1], "predict") == 0 && argc > 3)
    return cmd_predict(argv[2], argv[3]);
  if (std::strcmp(argv[1], "import") == 0 && argc > 3)
    return cmd_import(argv[2], argv[3]);
  if (std::strcmp(argv[1], "export") == 0 && argc > 3)
    return cmd_export(argv[2], argv[3]);
  if (std::strcmp(argv[1], "wal-dump") == 0) return cmd_wal_dump(argv[2]);
  if (std::strcmp(argv[1], "repl-status") == 0)
    return cmd_repl_status(argv[2], argc > 3 ? argv[3] : nullptr);
  usage();
  return 2;
}

// ilc::repl tests: wire codec framing, cold-follower bootstrap,
// frame-granular resume, compaction mid-stream, and the fault suite the
// subsystem exists for — torn ships, follower crashes mid-apply,
// stale-generation snapshots, split-brain rejection, leader restarts —
// every one deterministic via support::failpoint or direct byte surgery,
// ending in the byte-identical zero-divergence gate. Plus the serving
// layer: Router shard math and read-only fallback, wrong-shard refusal,
// and a read-only follower service answering replicated warm hits.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ir/fingerprint.hpp"
#include "kbstore/log_format.hpp"
#include "kbstore/store.hpp"
#include "obs/metrics.hpp"
#include "repl/applier.hpp"
#include "repl/router.hpp"
#include "repl/ship.hpp"
#include "repl/transport.hpp"
#include "repl/wire.hpp"
#include "support/failpoint.hpp"
#include "svc/service.hpp"
#include "workloads/workloads.hpp"

namespace {

namespace fs = std::filesystem;

using namespace ilc;

kb::ExperimentRecord sample(const std::string& program, std::uint64_t cycles,
                            const std::string& kind = "sequence") {
  kb::ExperimentRecord r;
  r.program = program;
  r.machine = "amd-like";
  r.kind = kind;
  r.config = "constprop,dce,licm";
  r.cycles = cycles;
  r.code_size = 100;
  r.static_features = {1.5, -2.25};
  return r;
}

struct TempDir {
  explicit TempDir(const char* name) : path(name) { fs::remove_all(path); }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

kbstore::Options every_append() {
  kbstore::Options opts;
  opts.flush = kbstore::Options::Flush::EveryAppend;
  opts.background_compaction = false;
  return opts;
}

/// Deliver every complete message in `bytes` to the applier. Returns
/// false (and the reason) as soon as one is refused.
bool deliver(repl::Applier& a, const std::string& bytes,
             std::string* why = nullptr) {
  repl::MsgReader reader;
  reader.feed(bytes);
  repl::Msg m;
  while (reader.next(m) == repl::MsgReader::Status::Ok)
    if (!a.apply(m, why)) return false;
  return true;
}

/// One full ship session over an in-process "pipe": handshake at the
/// follower's position, then poll until the follower's durable position
/// equals the leader's on-disk position. False on rejection or stall.
bool pipe_replicate(const std::string& leader_dir, repl::Applier& a,
                    std::string* why = nullptr) {
  repl::ShipSource src(leader_dir);
  std::string out;
  if (!src.handshake(a.hello(), out, why)) {
    deliver(a, out);  // the Reject reaches the follower too
    return false;
  }
  const auto target = src.position();
  if (!target) return false;
  for (int i = 0; i < 1000; ++i) {
    out.clear();
    if (!src.poll(out)) return false;
    if (!deliver(a, out, why)) return false;
    const kbstore::WalPosition pos = a.position();
    if (pos.generation == target->generation && pos.seq == target->seq &&
        pos.chain_crc == target->chain_crc)
      return true;
  }
  return false;
}

/// TCP catch-up gate: follower position == the leader's on-disk position.
bool wait_position(const std::string& leader_dir, const repl::Applier& a,
                   int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto target = repl::ShipSource(leader_dir).position();
    if (target) {
      const kbstore::WalPosition pos = a.position();
      if (pos.generation == target->generation && pos.seq == target->seq &&
          pos.chain_crc == target->chain_crc)
        return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// --- wire ----------------------------------------------------------------

TEST(ReplWire, RoundTripsEveryMessageType) {
  kbstore::WalPosition pos{7, 42, 0xdeadbeef};
  const repl::Msg msgs[] = {
      repl::Msg::hello(pos),
      repl::Msg::snapshot(9, std::string("snapbytes\0with nul", 18)),
      repl::Msg::frames(7, 42, "rawframes"),
      repl::Msg::heartbeat(7, 99),
      repl::Msg::reject("split-brain: because"),
  };
  std::string stream;
  for (const auto& m : msgs) repl::encode_msg(stream, m);

  repl::MsgReader reader;
  reader.feed(stream);
  repl::Msg m;
  ASSERT_EQ(reader.next(m), repl::MsgReader::Status::Ok);
  EXPECT_EQ(m.type, repl::MsgType::Hello);
  EXPECT_EQ(m.a, 7u);
  EXPECT_EQ(m.b, 42u);
  EXPECT_EQ(m.hello_chain(), 0xdeadbeefu);
  ASSERT_EQ(reader.next(m), repl::MsgReader::Status::Ok);
  EXPECT_EQ(m.type, repl::MsgType::Snapshot);
  EXPECT_EQ(m.a, 9u);
  EXPECT_EQ(m.payload.size(), 18u);
  ASSERT_EQ(reader.next(m), repl::MsgReader::Status::Ok);
  EXPECT_EQ(m.type, repl::MsgType::Frames);
  EXPECT_EQ(m.payload, "rawframes");
  ASSERT_EQ(reader.next(m), repl::MsgReader::Status::Ok);
  EXPECT_EQ(m.type, repl::MsgType::Heartbeat);
  EXPECT_EQ(m.b, 99u);
  ASSERT_EQ(reader.next(m), repl::MsgReader::Status::Ok);
  EXPECT_EQ(m.type, repl::MsgType::Reject);
  EXPECT_EQ(m.payload, "split-brain: because");
  EXPECT_EQ(reader.next(m), repl::MsgReader::Status::NeedMore);
}

TEST(ReplWire, DecodesAcrossArbitraryChunkBoundaries) {
  std::string stream;
  for (int i = 0; i < 20; ++i)
    repl::encode_msg(stream, repl::Msg::frames(1, i, std::string(i * 7, 'x')));
  repl::MsgReader reader;
  int decoded = 0;
  repl::Msg m;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    reader.feed(std::string_view(stream).substr(i, 1));  // one byte at a time
    while (reader.next(m) == repl::MsgReader::Status::Ok) {
      EXPECT_EQ(m.b, static_cast<std::uint64_t>(decoded));
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, 20);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ReplWire, CorruptStreamPoisonsUntilReset) {
  std::string stream;
  repl::encode_msg(stream, repl::Msg::heartbeat(1, 2));
  stream[9] ^= 0x40;  // flip a body bit: CRC must catch it
  repl::MsgReader reader;
  reader.feed(stream);
  repl::Msg m;
  EXPECT_EQ(reader.next(m), repl::MsgReader::Status::Corrupt);
  EXPECT_TRUE(reader.corrupt());
  EXPECT_EQ(reader.next(m), repl::MsgReader::Status::Corrupt);

  reader = repl::MsgReader();  // a reconnect starts a fresh reader
  std::string good;
  repl::encode_msg(good, repl::Msg::heartbeat(3, 4));
  reader.feed(good);
  ASSERT_EQ(reader.next(m), repl::MsgReader::Status::Ok);
  EXPECT_EQ(m.a, 3u);
}

// --- ship + apply over a pipe --------------------------------------------

TEST(ReplShip, ColdFollowerBootstrapsByteIdentical) {
  TempDir leader("repl_cold_leader");
  TempDir follower("repl_cold_follower");
  auto store = kbstore::Store::open(leader.path, every_append());
  ASSERT_TRUE(store);
  for (int i = 0; i < 10; ++i) store->append(sample("p" + std::to_string(i), 100 + i));

  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  ASSERT_TRUE(pipe_replicate(leader.path, *a));
  EXPECT_EQ(repl::divergence(leader.path, follower.path), std::nullopt);
  EXPECT_EQ(a->store().size(), 10u);
  const auto rec = a->find("p3", "amd-like", "sequence");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->cycles, 103u);
}

TEST(ReplShip, FollowerResumesFrameGranular) {
  TempDir leader("repl_resume_leader");
  TempDir follower("repl_resume_follower");
  auto store = kbstore::Store::open(leader.path, every_append());
  ASSERT_TRUE(store);
  store->append(sample("a", 1));
  store->append(sample("b", 2));

  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  ASSERT_TRUE(pipe_replicate(leader.path, *a));
  EXPECT_EQ(a->position().seq, 2u);

  store->append(sample("c", 3));
  store->upsert(sample("a", 4));
  store->upsert(sample("b", 5));

  // A fresh session (leader restart): the Hello carries seq=2, so only
  // the three new frames ship — verify by watching the Frames start_seq.
  repl::ShipSource src(leader.path);
  std::string out;
  ASSERT_TRUE(src.handshake(a->hello(), out, nullptr));
  ASSERT_TRUE(src.poll(out));
  repl::MsgReader reader;
  reader.feed(out);
  repl::Msg m;
  ASSERT_EQ(reader.next(m), repl::MsgReader::Status::Ok);
  ASSERT_EQ(m.type, repl::MsgType::Frames);
  EXPECT_EQ(m.b, 2u);  // resumes exactly after the follower's frames
  ASSERT_TRUE(a->apply(m));
  EXPECT_EQ(repl::divergence(leader.path, follower.path), std::nullopt);
  EXPECT_EQ(a->find("b", "amd-like", "sequence")->cycles, 5u);
  EXPECT_EQ(a->find("a", "amd-like", "sequence")->cycles, 4u);
}

TEST(ReplShip, CaughtUpSessionSendsOnlyHeartbeats) {
  TempDir leader("repl_hb_leader");
  TempDir follower("repl_hb_follower");
  auto store = kbstore::Store::open(leader.path, every_append());
  ASSERT_TRUE(store);
  store->append(sample("a", 1));
  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  ASSERT_TRUE(pipe_replicate(leader.path, *a));

  repl::ShipSource src(leader.path);
  std::string out;
  ASSERT_TRUE(src.handshake(a->hello(), out, nullptr));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(src.poll(out));
  repl::MsgReader reader;
  reader.feed(out);
  repl::Msg m;
  ASSERT_EQ(reader.next(m), repl::MsgReader::Status::Ok);
  EXPECT_EQ(m.type, repl::MsgType::Heartbeat);
  EXPECT_EQ(m.b, 1u);
  EXPECT_EQ(reader.next(m), repl::MsgReader::Status::NeedMore);
  ASSERT_TRUE(a->apply(m));
  EXPECT_EQ(a->lag(), 0u);
}

TEST(ReplShip, SnapshotBootstrapAfterLeaderCompaction) {
  TempDir leader("repl_snap_leader");
  TempDir follower("repl_snap_follower");
  auto store = kbstore::Store::open(leader.path, every_append());
  ASSERT_TRUE(store);
  for (int i = 0; i < 8; ++i) store->upsert(sample("p", 50 - i));
  ASSERT_TRUE(store->compact());  // snapshot generation 1, WAL generation 2
  store->append(sample("post", 7));

  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  ASSERT_TRUE(pipe_replicate(leader.path, *a));
  EXPECT_EQ(repl::divergence(leader.path, follower.path), std::nullopt);
  EXPECT_EQ(a->position().generation, 2u);
  EXPECT_EQ(a->store().size(), 2u);  // compacted "p" + "post"
  EXPECT_EQ(a->find("p", "amd-like", "sequence")->cycles, 43u);
}

TEST(ReplShip, CompactionMidStreamReshipsSnapshot) {
  TempDir leader("repl_midsnap_leader");
  TempDir follower("repl_midsnap_follower");
  auto store = kbstore::Store::open(leader.path, every_append());
  ASSERT_TRUE(store);
  for (int i = 0; i < 4; ++i) store->append(sample("p" + std::to_string(i), i));

  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  repl::ShipSource src(leader.path);
  std::string out;
  ASSERT_TRUE(src.handshake(a->hello(), out, nullptr));
  ASSERT_TRUE(src.poll(out));
  ASSERT_TRUE(deliver(*a, out));
  EXPECT_EQ(a->position().generation, 1u);
  EXPECT_EQ(a->position().seq, 4u);

  // The leader compacts *while this session stays open*: the next poll
  // must notice the generation change and ship the snapshot.
  ASSERT_TRUE(store->compact());
  store->append(sample("after", 9));
  const std::uint64_t snaps_before = a->store().stats().compactions;
  for (int i = 0; i < 10; ++i) {
    out.clear();
    ASSERT_TRUE(src.poll(out));
    ASSERT_TRUE(deliver(*a, out));
    if (a->position().generation == 2 && a->position().seq == 1) break;
  }
  EXPECT_EQ(a->position().generation, 2u);
  EXPECT_GT(a->store().stats().compactions, snaps_before);
  EXPECT_EQ(repl::divergence(leader.path, follower.path), std::nullopt);
  EXPECT_EQ(a->find("after", "amd-like", "sequence")->cycles, 9u);
}

// --- fault suite ---------------------------------------------------------

TEST(ReplFaults, TornShipMidFrameAppliesNothingAndResumes) {
  TempDir leader("repl_torn_leader");
  TempDir follower("repl_torn_follower");
  auto store = kbstore::Store::open(leader.path, every_append());
  ASSERT_TRUE(store);
  for (int i = 0; i < 6; ++i) store->append(sample("p" + std::to_string(i), i));

  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  repl::ShipSource src(leader.path);
  std::string out;
  ASSERT_TRUE(src.handshake(a->hello(), out, nullptr));
  ASSERT_TRUE(src.poll(out));

  // The connection dies mid-message: the follower sees only half the
  // bytes. No partial frame may reach its store.
  repl::MsgReader reader;
  reader.feed(std::string_view(out).substr(0, out.size() / 2));
  repl::Msg m;
  EXPECT_EQ(reader.next(m), repl::MsgReader::Status::NeedMore);
  EXPECT_EQ(a->position().seq, 0u);

  // Reconnect: the half-read reader is dropped, a fresh handshake
  // resumes in full.
  ASSERT_TRUE(pipe_replicate(leader.path, *a));
  EXPECT_EQ(repl::divergence(leader.path, follower.path), std::nullopt);
}

TEST(ReplFaults, FollowerCrashMidApplyRecoversAndResumes) {
  TempDir leader("repl_crash_leader");
  TempDir follower("repl_crash_follower");
  auto store = kbstore::Store::open(leader.path, every_append());
  ASSERT_TRUE(store);
  for (int i = 0; i < 6; ++i) store->append(sample("p" + std::to_string(i), i));

  // First ship dies mid-apply: the failpoint makes the follower write a
  // torn prefix of the batch and "crash" (its WAL handle is gone).
  support::Failpoints::instance().configure("kbstore.follower_torn=error*1");
  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  std::string why;
  EXPECT_FALSE(pipe_replicate(leader.path, *a, &why));
  EXPECT_NE(why.find("append failed"), std::string::npos);
  support::Failpoints::instance().unset_all();
  a.reset();  // the crashed process exits

  // Restart: recovery truncates the torn tail, the Hello resumes from
  // the surviving prefix, and the ship converges to byte-identical.
  kbstore::RecoveryInfo info;
  a = repl::Applier::open(follower.path, {}, &info);
  ASSERT_TRUE(a);
  EXPECT_TRUE(info.torn_tail);
  EXPECT_LT(a->position().seq, 6u);
  ASSERT_TRUE(pipe_replicate(leader.path, *a));
  EXPECT_EQ(a->position().seq, 6u);
  EXPECT_EQ(repl::divergence(leader.path, follower.path), std::nullopt);
}

TEST(ReplFaults, StaleGenerationSnapshotRejected) {
  TempDir follower("repl_stale_follower");
  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  ASSERT_TRUE(a->apply(repl::Msg::snapshot(3, "")));  // legit: move to gen 3
  EXPECT_EQ(a->position().generation, 3u);

  std::string why;
  EXPECT_FALSE(a->apply(repl::Msg::snapshot(2, ""), &why));  // behind: refuse
  EXPECT_NE(why.find("stale-generation"), std::string::npos);
  EXPECT_FALSE(a->apply(repl::Msg::snapshot(3, ""), &why));  // equal: a rewind
  EXPECT_EQ(a->position().generation, 3u);
  EXPECT_FALSE(a->rejected());  // refusal is not split-brain: resumable
}

TEST(ReplFaults, SplitBrainFollowerAheadRejected) {
  TempDir leader("repl_sb1_leader");
  TempDir follower("repl_sb1_follower");
  auto store = kbstore::Store::open(leader.path, every_append());
  ASSERT_TRUE(store);
  store->append(sample("a", 1));

  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  ASSERT_TRUE(a->apply(repl::Msg::snapshot(5, "")));  // replicated elsewhere

  std::string why;
  EXPECT_FALSE(pipe_replicate(leader.path, *a, nullptr));
  EXPECT_TRUE(a->rejected(&why));
  EXPECT_NE(why.find("split-brain"), std::string::npos);
  // Split-brain is final: even a valid message is refused now.
  EXPECT_FALSE(a->apply(repl::Msg::heartbeat(1, 1)));
}

TEST(ReplFaults, SplitBrainDivergedHistoryRejected) {
  TempDir leader_a("repl_sb2_a");
  TempDir leader_b("repl_sb2_b");
  TempDir follower("repl_sb2_follower");
  auto sa = kbstore::Store::open(leader_a.path, every_append());
  auto sb = kbstore::Store::open(leader_b.path, every_append());
  ASSERT_TRUE(sa && sb);
  sa->append(sample("from-a", 1));
  sb->append(sample("from-b", 2));  // same generation, same seq, other bytes

  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  ASSERT_TRUE(pipe_replicate(leader_b.path, *a));

  // The follower replicated B; pointing it at A must be refused, not
  // silently rewritten — the chain CRC catches the divergence.
  std::string why;
  EXPECT_FALSE(pipe_replicate(leader_a.path, *a, nullptr));
  EXPECT_TRUE(a->rejected(&why));
  EXPECT_NE(why.find("diverges"), std::string::npos);
}

TEST(ReplFaults, FrameGapAndRewindRefused) {
  TempDir leader("repl_gap_leader");
  TempDir follower("repl_gap_follower");
  auto store = kbstore::Store::open(leader.path, every_append());
  ASSERT_TRUE(store);
  store->append(sample("a", 1));
  store->append(sample("b", 2));

  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  repl::ShipSource src(leader.path);
  std::string out;
  ASSERT_TRUE(src.handshake(a->hello(), out, nullptr));
  ASSERT_TRUE(src.poll(out));
  repl::MsgReader reader;
  reader.feed(out);
  repl::Msg frames;
  ASSERT_EQ(reader.next(frames), repl::MsgReader::Status::Ok);
  ASSERT_EQ(frames.type, repl::MsgType::Frames);

  std::string why;
  repl::Msg gap = frames;
  gap.b = 5;  // claims to start past the follower's position
  EXPECT_FALSE(a->apply(gap, &why));
  EXPECT_NE(why.find("gap"), std::string::npos);

  ASSERT_TRUE(a->apply(frames));  // the real batch is fine
  EXPECT_FALSE(a->apply(frames, &why));  // replaying it is a rewind
  EXPECT_NE(why.find("rewind"), std::string::npos);
  EXPECT_EQ(a->position().seq, 2u);
}

// --- TCP transport -------------------------------------------------------

TEST(ReplTcp, TwoFollowersConvergeAndSurviveLeaderRestart) {
  TempDir leader("repl_tcp_leader");
  TempDir f1("repl_tcp_f1");
  TempDir f2("repl_tcp_f2");
  auto store = kbstore::Store::open(leader.path, every_append());
  ASSERT_TRUE(store);
  for (int i = 0; i < 8; ++i) store->append(sample("p" + std::to_string(i), i));

  auto ship = repl::ShipServer::start(leader.path, 0);
  ASSERT_TRUE(ship);
  const std::uint16_t port = ship->port();

  auto a1 = repl::Applier::open(f1.path);
  auto a2 = repl::Applier::open(f2.path);
  ASSERT_TRUE(a1 && a2);
  auto c1 = repl::ShipClient::start(*a1, port);
  auto c2 = repl::ShipClient::start(*a2, port);
  ASSERT_TRUE(wait_position(leader.path, *a1, 15000));
  ASSERT_TRUE(wait_position(leader.path, *a2, 15000));
  EXPECT_EQ(repl::divergence(leader.path, f1.path), std::nullopt);
  EXPECT_EQ(repl::divergence(leader.path, f2.path), std::nullopt);

  // Leader restart: the ship endpoint disappears, the store keeps
  // writing, a new server comes up on the same port, clients reconnect
  // and resume from their durable positions.
  ship.reset();
  for (int i = 0; i < 4; ++i) store->append(sample("post" + std::to_string(i), i));
  ship = repl::ShipServer::start(leader.path, port);
  ASSERT_TRUE(ship);
  ASSERT_TRUE(wait_position(leader.path, *a1, 15000));
  ASSERT_TRUE(wait_position(leader.path, *a2, 15000));
  EXPECT_GE(c1->connects(), 2u);
  EXPECT_GE(c2->connects(), 2u);
  EXPECT_EQ(repl::divergence(leader.path, f1.path), std::nullopt);
  EXPECT_EQ(repl::divergence(leader.path, f2.path), std::nullopt);
  EXPECT_FALSE(c1->stopped());
  EXPECT_FALSE(c2->stopped());
}

TEST(ReplTcp, TornTcpShipIsReconnectedAndConverges) {
  TempDir leader("repl_tcptorn_leader");
  TempDir follower("repl_tcptorn_follower");
  auto store = kbstore::Store::open(leader.path, every_append());
  ASSERT_TRUE(store);
  for (int i = 0; i < 6; ++i) store->append(sample("p" + std::to_string(i), i));

  // The first shipped batch is cut mid-message and the connection
  // dropped (the repl.ship failpoint): the follower must drop the torn
  // tail, reconnect, and still converge byte-identically.
  support::Failpoints::instance().configure("repl.ship=error*1");
  auto ship = repl::ShipServer::start(leader.path, 0);
  ASSERT_TRUE(ship);
  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  auto c = repl::ShipClient::start(*a, ship->port());
  ASSERT_TRUE(wait_position(leader.path, *a, 15000));
  EXPECT_EQ(repl::divergence(leader.path, follower.path), std::nullopt);
  EXPECT_GE(c->connects(), 2u);
  support::Failpoints::instance().unset_all();
}

// --- router --------------------------------------------------------------

TEST(ReplRouter, RoutesOwnerWithReadOnlyFallback) {
  repl::Router router({
      {{"127.0.0.1", 9000}, {{"127.0.0.1", 9001}}},
      {{"127.0.0.1", 9010}, {{"127.0.0.1", 9011}, {"127.0.0.1", 9012}}},
  });
  EXPECT_EQ(repl::owner_of(7, 2), 1u);
  EXPECT_EQ(repl::owner_of(8, 2), 0u);

  auto r = router.route(8);  // shard 0, healthy primary
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->shard, 0u);
  EXPECT_EQ(r->endpoint.port, 9000);
  EXPECT_FALSE(r->read_only);

  router.set_down({"127.0.0.1", 9010});
  r = router.route(7);  // shard 1: primary down -> first follower
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->read_only);
  EXPECT_EQ(r->endpoint.port, 9011);

  router.set_down({"127.0.0.1", 9011});
  r = router.route(7);  // next follower
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->endpoint.port, 9012);

  router.set_down({"127.0.0.1", 9012});
  EXPECT_FALSE(router.route(7).has_value());  // whole shard dark

  router.set_up({"127.0.0.1", 9010});
  r = router.route(7);  // primary recovered
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->read_only);
  EXPECT_EQ(r->endpoint.port, 9010);
}

// --- sharded / follower serving ------------------------------------------

TEST(ReplServing, WrongShardRefusedBeforeTouchingTheKb) {
  const wl::Workload w = wl::make_workload("fir");
  const std::uint64_t fp = ir::fingerprint(w.module);

  svc::TuningService::Options opts;
  opts.workers = 1;
  opts.shard_count = 2;
  opts.shard_index = static_cast<std::size_t>((fp % 2) ^ 1);  // not ours
  svc::TuningService svc(opts);

  svc::TuningRequest req;
  req.program = "fir";
  req.budget = 1;
  const svc::TuningResponse r = svc.tune(req);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("wrong shard: owner=" + std::to_string(fp % 2)),
            std::string::npos);
  EXPECT_EQ(r.simulations, 0u);
  EXPECT_EQ(svc.kb_size(), 0u);
  const obs::RegistrySnapshot m = svc.metrics();
  EXPECT_EQ(m.counter_value("svc.wrong_shard"), 1u);
  EXPECT_EQ(m.counter_value("svc.errors"), 1u);
}

TEST(ReplServing, FollowerServiceServesReplicatedHitsReadOnly) {
  TempDir leader("repl_serve_leader");
  TempDir follower("repl_serve_follower");

  svc::TuningRequest req;
  req.program = "fir";
  req.budget = 2;
  svc::TuningService::Options lopts;
  lopts.workers = 1;
  lopts.kb_path = leader.path;
  svc::TuningService leader_svc(lopts);
  const svc::TuningResponse r = leader_svc.tune(req);
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(leader_svc.save());

  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  ASSERT_TRUE(pipe_replicate(leader.path, *a));

  svc::TuningService::Options fopts;
  fopts.workers = 1;
  fopts.follower_store = &a->store();
  svc::TuningService follower_svc(fopts);

  const svc::TuningResponse hit = follower_svc.tune(req);
  EXPECT_TRUE(hit.ok);
  EXPECT_EQ(hit.source, svc::Source::Follower);
  EXPECT_EQ(hit.simulations, 0u);
  EXPECT_GT(hit.best_metric, 0u);
  // Counted by the service that served it, not by its leader in the same
  // process.
  const obs::RegistrySnapshot fm = follower_svc.metrics();
  EXPECT_EQ(fm.counter_value("svc.follower_hits"), 1u);
  EXPECT_EQ(fm.counter_value("svc.warm_hits"), 1u);
  const obs::RegistrySnapshot lm = leader_svc.metrics();
  EXPECT_EQ(lm.counter_value("svc.follower_hits"), 0u);
  EXPECT_EQ(lm.counter_value("svc.warm_hits"), 0u);

  svc::TuningRequest miss = req;
  miss.program = "crc32";  // never tuned on the leader
  const svc::TuningResponse m = follower_svc.tune(miss);
  EXPECT_FALSE(m.ok);
  EXPECT_NE(m.error.find("read-only follower"), std::string::npos);
  EXPECT_EQ(m.simulations, 0u);
}

// --- router edge cases ----------------------------------------------------

TEST(ReplRouter, AllEndpointsDownIsUnroutableAndCounted) {
  obs::Registry metrics;
  const repl::Endpoint primary{"127.0.0.1", 9300};
  const repl::Endpoint follower{"127.0.0.1", 9301};
  repl::Router router({{primary, {follower}}}, &metrics);

  router.set_down(primary);
  router.set_down(follower);
  router.set_down(follower);  // already down: not a transition
  EXPECT_FALSE(router.route(0).has_value());
  EXPECT_FALSE(router.route_shard(0).has_value());
  EXPECT_EQ(metrics.counter("repl.router.unroutable").value(), 2u);
  EXPECT_EQ(metrics.counter("repl.router.mark_down").value(), 2u);

  // One endpoint back: routable again (read-only: it is the follower).
  router.set_up(follower);
  const auto r = router.route_shard(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->read_only);
  EXPECT_EQ(metrics.counter("repl.router.mark_up").value(), 1u);
  EXPECT_EQ(metrics.counter("repl.router.fallback_serves").value(), 1u);
}

TEST(ReplRouter, SingleShardOwnsEveryFingerprintAndOutOfRangeIsRefused) {
  obs::Registry metrics;
  repl::Router router({{{"127.0.0.1", 9400}, {}}}, &metrics);
  for (const std::uint64_t fp : {0ull, 1ull, 0xffffffffffffffffull}) {
    const auto r = router.route(fp);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->shard, 0u);
    EXPECT_EQ(r->endpoint.port, 9400);
  }
  // A shard index beyond the map (stale client) is unroutable, not UB.
  EXPECT_FALSE(router.route_shard(7).has_value());
  EXPECT_EQ(metrics.counter("repl.router.unroutable").value(), 1u);
}

TEST(ReplRouter, FallbackMidCatchUpServesOnlyTheReplicatedPrefix) {
  TempDir leader("repl_midcatchup_leader");
  TempDir follower("repl_midcatchup_follower");

  svc::TuningRequest early;
  early.program = "fir";
  early.budget = 2;
  svc::TuningRequest late;
  late.program = "crc32";
  late.budget = 2;

  svc::TuningService::Options lopts;
  lopts.workers = 1;
  lopts.kb_path = leader.path;
  {
    svc::TuningService leader_svc(lopts);
    ASSERT_TRUE(leader_svc.tune(early).ok);
    ASSERT_TRUE(leader_svc.save());
  }

  // Replicate what exists so far, then let the leader advance: the
  // follower is now mid-catch-up, durable but behind.
  auto a = repl::Applier::open(follower.path);
  ASSERT_TRUE(a);
  ASSERT_TRUE(pipe_replicate(leader.path, *a));
  {
    svc::TuningService leader_svc(lopts);  // leader restarts and moves on
    ASSERT_TRUE(leader_svc.tune(late).ok);
    ASSERT_TRUE(leader_svc.save());
  }
  const auto target = repl::ShipSource(leader.path).position();
  ASSERT_TRUE(target.has_value());
  const kbstore::WalPosition behind = a->position();
  EXPECT_TRUE(behind.generation != target->generation ||
              behind.seq < target->seq);

  // The primary dies; the router falls back to the lagging follower.
  obs::Registry metrics;
  const repl::Endpoint primary{"127.0.0.1", 9600};
  const repl::Endpoint replica{"127.0.0.1", 9601};
  repl::Router router({{primary, {replica}}}, &metrics);
  router.set_down(primary);
  const auto r = router.route_shard(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->read_only);
  EXPECT_EQ(r->endpoint, replica);

  // What that fallback can actually serve: the replicated prefix, and
  // nothing the leader committed after the follower fell behind.
  svc::TuningService::Options fopts;
  fopts.workers = 1;
  fopts.follower_store = &a->store();
  svc::TuningService follower_svc(fopts);
  const svc::TuningResponse hit = follower_svc.tune(early);
  EXPECT_TRUE(hit.ok);
  EXPECT_EQ(hit.source, svc::Source::Follower);
  const svc::TuningResponse miss = follower_svc.tune(late);
  EXPECT_FALSE(miss.ok);
  EXPECT_EQ(miss.simulations, 0u);

  // Catch-up completes; the late record becomes servable.
  ASSERT_TRUE(pipe_replicate(leader.path, *a));
  const svc::TuningResponse now = follower_svc.tune(late);
  EXPECT_TRUE(now.ok);
  EXPECT_EQ(now.source, svc::Source::Follower);
}

}  // namespace

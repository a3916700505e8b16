#include "repl/applier.hpp"

namespace ilc::repl {

namespace {

void set_why(std::string* why, std::string reason) {
  if (why) *why = std::move(reason);
}

}  // namespace

std::unique_ptr<Applier> Applier::open(const std::string& dir, Options opts,
                                       kbstore::RecoveryInfo* info) {
  opts.store.follower = true;
  auto a = std::unique_ptr<Applier>(new Applier());
  a->store_ = kbstore::Store::open(dir, opts.store, info);
  if (!a->store_) return nullptr;
  obs::Registry& reg =
      opts.registry ? *opts.registry : obs::Registry::instance();
  const std::string& p = opts.metric_prefix;
  a->frames_applied_ = reg.counter(p + ".frames_applied");
  a->snapshots_installed_ = reg.counter(p + ".snapshots_installed");
  a->rejects_ = reg.counter(p + ".rejects");
  a->lag_frames_ = reg.gauge(p + ".lag_frames");
  return a;
}

Msg Applier::hello() const { return Msg::hello(store_->wal_position()); }

bool Applier::apply(const Msg& m, std::string* why) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (promoted_) {
      set_why(why, "applier promoted to leader: replication stream refused");
      return false;
    }
    if (rejected_) {
      set_why(why, "session rejected by leader: " + reject_reason_);
      return false;
    }
  }

  bool ok = true;
  switch (m.type) {
    case MsgType::Hello:
      set_why(why, "protocol error: Hello flows follower -> leader");
      ok = false;
      break;

    case MsgType::Reject: {
      std::lock_guard<std::mutex> lk(mu_);
      rejected_ = true;
      reject_reason_ = m.payload;
      rejects_.add(1);
      set_why(why, "rejected by leader: " + m.payload);
      ok = false;
      break;
    }

    case MsgType::Heartbeat: {
      std::lock_guard<std::mutex> lk(mu_);
      leader_gen_ = m.a;
      leader_seq_ = m.b;
      break;
    }

    case MsgType::Snapshot: {
      // A snapshot at or behind our generation would roll acknowledged
      // frames back — a stale leader or a replayed ship. Refuse it.
      if (m.a <= store_->wal_generation()) {
        set_why(why, "stale-generation snapshot: leader WAL generation " +
                         std::to_string(m.a) + ", follower already at " +
                         std::to_string(store_->wal_generation()));
        rejects_.add(1);
        ok = false;
        break;
      }
      if (!store_->follower_install_snapshot(m.payload, m.a)) {
        set_why(why, "snapshot install failed (corrupt image or store "
                     "write error)");
        ok = false;
        break;
      }
      snapshots_installed_.add(1);
      std::lock_guard<std::mutex> lk(mu_);
      leader_gen_ = m.a;
      leader_seq_ = 0;  // refined by the heartbeat that follows
      break;
    }

    case MsgType::Frames: {
      if (m.a != store_->wal_generation()) {
        set_why(why, "frames for generation " + std::to_string(m.a) +
                         " but store is at " +
                         std::to_string(store_->wal_generation()));
        ok = false;
        break;
      }
      const std::uint64_t have = store_->durable_seq();
      if (m.b != have) {
        set_why(why, (m.b > have ? "gap" : "rewind") +
                         std::string(" in shipped frames: batch starts at ") +
                         std::to_string(m.b) + ", follower holds " +
                         std::to_string(have));
        ok = false;
        break;
      }
      const std::size_t appended = store_->follower_append(m.payload);
      if (appended == 0) {
        set_why(why, "follower append failed (empty, torn or bit-flipped "
                     "ship, or a store write error)");
        ok = false;
        break;
      }
      frames_applied_.add(appended);
      break;
    }
  }

  lag_frames_.set(static_cast<std::int64_t>(lag()));
  return ok;
}

std::uint64_t Applier::lag() const {
  const kbstore::WalPosition pos = store_->wal_position();
  std::lock_guard<std::mutex> lk(mu_);
  if (leader_gen_ == 0) return 0;  // never heard from the leader
  if (leader_gen_ == pos.generation)
    return leader_seq_ > pos.seq ? leader_seq_ - pos.seq : 0;
  // Mid-bootstrap (snapshot not yet installed): everything is behind.
  return leader_seq_ + 1;
}

std::shared_ptr<kbstore::Store> Applier::promote(std::string* why) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (promoted_) {
      set_why(why, "already promoted");
      return nullptr;
    }
    promoted_ = true;  // refuse replication traffic from here on
  }
  if (!store_->promote_to_leader()) {
    set_why(why, "store promotion failed (not a follower, or the fencing "
                 "compaction could not be written)");
    return nullptr;
  }
  return store_;
}

bool Applier::promoted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return promoted_;
}

bool Applier::rejected(std::string* why) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (rejected_) set_why(why, reject_reason_);
  return rejected_;
}

}  // namespace ilc::repl

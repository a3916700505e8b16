#include "net/session.hpp"

#include <utility>
#include <vector>

#include "svc/protocol.hpp"

namespace ilc::net {

std::uint64_t Session::claim_locked(Slot slot) {
  const std::uint64_t id = next_id_++;
  if (!slot.ready) ++unready_;
  slots_.push_back(std::move(slot));
  return id;
}

void Session::push_ready(std::string text) {
  Slot slot;
  slot.ready = true;
  slot.text = std::move(text);
  std::lock_guard<std::mutex> lock(mu_);
  claim_locked(std::move(slot));
}

void Session::defer_or_run(std::function<std::string()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (unready_ > 0) {
      Slot slot;
      slot.deferred = std::move(fn);
      claim_locked(std::move(slot));
      ++barriers_;
      return;
    }
  }
  // Nothing pending before it: the barrier is trivially reached. Only the
  // transport thread claims slots, so no tune can sneak in ahead.
  push_ready(fn());
}

void Session::complete(std::uint64_t id, std::string text) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // The slot can only have been released by drain_ready after it was
    // ready, and it only becomes ready here — so it must still exist.
    Slot& slot = slots_.at(static_cast<std::size_t>(id - head_id_));
    slot.ready = true;
    slot.text = std::move(text);
    --unready_;
    settle_locked(lock);
    if (unready_ == 0) all_ready_.notify_all();
  }
  // Outside the lock: the wake hook may post to an event loop's queue,
  // which takes its own mutex.
  if (hooks_.wake) hooks_.wake();
}

void Session::settle_locked(std::unique_lock<std::mutex>& lock) {
  for (;;) {
    std::size_t i = 0;
    while (i < slots_.size() && slots_[i].ready) ++i;
    if (i == slots_.size()) return;
    Slot& first_unready = slots_[i];
    // A tune still in flight, a barrier another thread is already
    // running, or nothing runnable: later barriers stay blocked behind it.
    if (!first_unready.deferred || first_unready.running) return;
    first_unready.running = true;
    const std::function<std::string()> fn = std::move(first_unready.deferred);
    const std::uint64_t id = head_id_ + i;
    lock.unlock();
    std::string text;
    try {
      text = fn();
    } catch (...) {
      text = "err internal error";
    }
    lock.lock();
    // Re-find by id: ready head slots may have been drained meanwhile
    // (this slot cannot have been — it was not ready).
    Slot& slot = slots_.at(static_cast<std::size_t>(id - head_id_));
    slot.ready = true;
    slot.running = false;
    slot.text = std::move(text);
    --unready_;
    --barriers_;
  }
}

void Session::feed_line(const std::string& line,
                        std::chrono::steady_clock::time_point start) {
  if (in_module_) {
    module_body_ += line;
    module_body_ += '\n';
    if (--module_remaining_ == 0) {
      modules_[module_name_] = std::move(module_body_);
      module_body_.clear();
      in_module_ = false;
    }
    return;
  }

  svc::Command cmd = svc::parse_command(line);
  switch (cmd.kind) {
    case svc::Command::Kind::Empty:
      break;
    case svc::Command::Kind::Invalid:
      push_ready("err " + cmd.error);
      break;
    case svc::Command::Kind::Module:
      if (cmd.module_lines == 0) {
        modules_[cmd.module_name] = "";
        break;
      }
      in_module_ = true;
      module_name_ = cmd.module_name;
      module_remaining_ = cmd.module_lines;
      module_body_.clear();
      break;
    case svc::Command::Kind::Tune: {
      if (const auto it = modules_.find(cmd.request.program);
          it != modules_.end())
        cmd.request.ir_text = it->second;

      Slot slot;
      slot.info.is_tune = true;
      slot.info.program = cmd.request.program;
      slot.info.start = start;
      // The request's trace identity is minted here, before submit, so
      // the svc.submit span (created under the TraceScope below) parents
      // onto the net.request span the transport records at write time.
      if (obs::Tracer::enabled())
        slot.info.trace = {obs::Tracer::new_id(), obs::Tracer::new_id()};
      const obs::SpanContext trace = slot.info.trace;

      std::uint64_t id = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        id = claim_locked(std::move(slot));
      }
      // The callback may fire inline (warm hit) — the slot must already
      // be claimed, and the session reached through a weak_ptr so a
      // client that disconnects mid-request just stops listening while
      // the service's completion guard retires the job.
      obs::TraceScope scope(trace);
      service_.submit(
          std::move(cmd.request),
          [weak = weak_from_this(), id](const svc::TuningResponse& r) {
            if (const std::shared_ptr<Session> self = weak.lock())
              self->complete(id, svc::format_response(r));
          });
      break;
    }
    case svc::Command::Kind::Metrics:
      defer_or_run(
          [this] { return svc::format_metrics(service_.metrics()); });
      break;
    case svc::Command::Kind::Save: {
      if (!cmd.path.empty() && origin_ == Origin::Remote) {
        push_ready("err save <path> is not accepted over the network");
        break;
      }
      defer_or_run([this, path = cmd.path] {
        const bool ok = path.empty() ? service_.save() : service_.save_to(path);
        return std::string(ok ? "ok saved" : "err save failed");
      });
      break;
    }
    case svc::Command::Kind::Ping:
      // Answered synchronously — a ping must not queue behind tunes, or
      // a merely-busy server would look dead to the health monitor.
      push_ready("ok pong shard=" + std::to_string(service_.shard_index()) +
                 "/" + std::to_string(service_.shard_count()) +
                 " read_only=" + (service_.read_only() ? "1" : "0"));
      break;
    case svc::Command::Kind::Quit: {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
      break;
    }
  }
}

std::size_t Session::drain_ready(std::string& out, std::vector<Done>* done) {
  std::size_t released = 0;
  std::lock_guard<std::mutex> lock(mu_);
  while (!slots_.empty() && slots_.front().ready) {
    Slot& slot = slots_.front();
    out += slot.text;
    out += '\n';
    if (done != nullptr) done->push_back(std::move(slot.info));
    slots_.pop_front();
    ++head_id_;
    ++released;
  }
  return released;
}

bool Session::quit_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quit_;
}

bool Session::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return unready_ == 0;
}

bool Session::barrier_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return barriers_ > 0;
}

void Session::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  all_ready_.wait(lock, [this] { return unready_ == 0; });
}

void Session::finish_input() {
  if (!in_module_) return;
  modules_[module_name_] = std::move(module_body_);
  module_body_.clear();
  in_module_ = false;
}

void Session::fail(const std::string& message) {
  push_ready("err " + message);
}

}  // namespace ilc::net

#include "cpu/core.hh"

#include <algorithm>
#include <cstdio>

#include "coherence/directory.hh"
#include "common/logging.hh"
#include "snapshot/serialize.hh"

namespace fsoi::cpu {

using coherence::MsgType;
using workload::Instr;
using workload::Op;

Core::Core(NodeId node, const CoreConfig &config, coherence::L1Cache &l1,
           coherence::Transport &transport,
           std::function<NodeId(Addr)> home_of)
    : node_(node), config_(config), l1_(l1), transport_(transport),
      homeOf_(std::move(home_of)),
      rng_(config.seed ^ (0xc0ffee123ULL * (node + 1)))
{
}

void
Core::registerStats(const obs::Scope &scope) const
{
    scope.counter("instructions", stats_.instructions);
    scope.counter("loads", stats_.loads);
    scope.counter("stores", stats_.stores);
    scope.counter("locks_acquired", stats_.locks_acquired);
    scope.counter("barriers_passed", stats_.barriers_passed);
    scope.counter("spin_loops", stats_.spin_loops);
    scope.counter("stall_cycles", stats_.stall_cycles);
    scope.counter("active_cycles", stats_.active_cycles);
    scope.counter("sync_packets", stats_.sync_packets);
}

void
Core::bind(std::unique_ptr<workload::InstrStream> stream)
{
    stream_ = std::move(stream);
}

void
Core::onControlBit(std::uint64_t tag)
{
    Addr word;
    std::uint64_t value;
    bool success, direct;
    coherence::Directory::unpackSyncTag(tag, word, value, success, direct);
    subValues_[word] = value;
    if (direct && subWaitingDirect_ && word == subWaitWord_) {
        subWaitingDirect_ = false;
        subDirectArrived_ = true;
        subDirectValue_ = value;
        subDirectSuccess_ = success;
    }
}

bool
Core::sendSync(MsgType type, Addr word, std::uint64_t value,
               bool subscribe, bool unconditional)
{
    coherence::Message msg{};
    msg.type = type;
    msg.line = word;
    msg.requester = node_;
    msg.value = value;
    msg.subscribe = subscribe;
    msg.success = unconditional;
    if (!transport_.trySend(node_, homeOf_(word), msg))
        return false;
    stats_.sync_packets++;
    subWaitingDirect_ = true;
    subWaitWord_ = word;
    subDirectArrived_ = false;
    return true;
}

void
Core::fetch(Cycle now)
{
    FSOI_ASSERT(stream_ != nullptr, "core %u has no instruction stream",
                node_);
    instr_ = stream_->next();
    startInstr(now);
}

void
Core::startInstr(Cycle now)
{
    switch (instr_.op) {
      case Op::Compute:
        stats_.instructions += instr_.cycles;
        busyUntil_ = now + instr_.cycles;
        mode_ = Mode::Compute;
        return;
      case Op::Load:
        mode_ = Mode::LoadIssue;
        return;
      case Op::Store:
        mode_ = Mode::StoreIssue;
        return;
      case Op::Lock:
        syncStep_ = 0;
        mode_ = config_.sync_subscription ? Mode::SubLlSend : Mode::LockLl;
        return;
      case Op::Unlock:
        syncStep_ = 0;
        mode_ = config_.sync_subscription ? Mode::SubStoreSend
                                          : Mode::UnlockStore;
        return;
      case Op::Barrier: {
        auto &sense = senses_[instr_.addr];
        sense ^= 1;
        mySense_ = sense;
        syncStep_ = 0;
        mode_ = config_.sync_subscription ? Mode::SubLlSend : Mode::BarLl;
        return;
      }
      case Op::End:
        mode_ = Mode::Done;
        return;
    }
}

bool
Core::subSpinSatisfied() const
{
    const Addr word = instr_.op == Op::Lock ? instr_.addr
                                            : instr_.addr + 64;
    const std::uint64_t want = instr_.op == Op::Lock ? 0 : mySense_;
    const auto it = subValues_.find(word);
    return it != subValues_.end() && it->second == want;
}

Cycle
Core::nextEventCycle(Cycle now) const
{
    switch (mode_) {
      case Mode::Done:
        return kNoCycle;

      // Compute and the pause modes sit idle until busyUntil_; the
      // per-cycle accounting they would have accrued is reconstructed
      // by catchUp().
      case Mode::Compute:
      case Mode::LockRetryPause:
      case Mode::LockSpinPause:
      case Mode::BarRetryPause:
      case Mode::BarSpinPause:
        return std::max(busyUntil_, now + 1);

      // L1 rendezvous: nothing to do until the completion lands
      // (the System wakes us when it delivers one).
      case Mode::LoadWait:
      case Mode::LockLlWait:
      case Mode::LockScWait:
      case Mode::LockSpinWait:
      case Mode::BarLlWait:
      case Mode::BarScWait:
      case Mode::BarSpinWait:
        return cbArrived_ ? now + 1 : kNoCycle;

      // Subscription rendezvous: woken by the control-bit delivery.
      case Mode::SubLlWait:
      case Mode::SubScWait:
      case Mode::SubStoreWait:
        return subDirectArrived_ ? now + 1 : kNoCycle;

      // Passive spin on the subscription value table: progress only
      // when a control bit flips the watched word (its delivery wakes
      // us), or immediately if the wanted value is already there.
      case Mode::SubSpin:
        return subSpinSatisfied() ? now + 1 : kNoCycle;

      // Everything else (fetch, issue/send retries, store drains)
      // attempts forward progress every cycle.
      default:
        return now + 1;
    }
}

void
Core::catchUp(Cycle now)
{
    // Reconstruct the per-cycle counter updates the tick-every-cycle
    // engine would have made over the skipped span (now_, now): the
    // gap covers cycles now_ + 1 .. now - 1, exclusive of the tick
    // about to run at `now` which does its own accounting.
    const Cycle gap = now - now_ - 1;
    switch (mode_) {
      case Mode::Compute: {
        // Each skipped cycle c with c < busyUntil_ was an active
        // cycle; the scheduler wakes us at busyUntil_, so normally
        // the whole gap qualifies (min() guards spurious late wakes).
        const Cycle active_end = std::min(now, busyUntil_);
        if (active_end > now_ + 1)
            stats_.active_cycles += active_end - now_ - 1;
        return;
      }

      case Mode::LoadWait:
      case Mode::LockLlWait:
      case Mode::LockScWait:
      case Mode::LockSpinWait:
      case Mode::BarLlWait:
      case Mode::BarScWait:
      case Mode::BarSpinWait:
      case Mode::SubLlWait:
      case Mode::SubScWait:
      case Mode::SubStoreWait:
        // Every skipped cycle preceded the arrival (the System wakes
        // the core for a same-cycle tick on every delivery).
        stats_.stall_cycles += gap;
        return;

      // Pause modes and SubSpin accrued nothing per cycle in the
      // original engine; fetch/issue modes never sleep.
      default:
        return;
    }
}

void
Core::syncStats(Cycle now)
{
    if (now > now_ + 1)
        catchUp(now);
    if (now > now_) {
        // Account the boundary cycle `now` itself the way a tick at
        // `now` would have: the sampler reads after components ran.
        switch (mode_) {
          case Mode::Compute:
            if (now < busyUntil_)
                stats_.active_cycles++;
            break;
          case Mode::LoadWait:
          case Mode::LockLlWait:
          case Mode::LockScWait:
          case Mode::LockSpinWait:
          case Mode::BarLlWait:
          case Mode::BarScWait:
          case Mode::BarSpinWait:
            if (!cbArrived_)
                stats_.stall_cycles++;
            break;
          case Mode::SubLlWait:
          case Mode::SubScWait:
          case Mode::SubStoreWait:
            if (!subDirectArrived_)
                stats_.stall_cycles++;
            break;
          default:
            break;
        }
        now_ = now;
    }
}

void
Core::tick(Cycle now)
{
    if (now > now_ + 1)
        catchUp(now);
    now_ = now;
    switch (mode_) {
      case Mode::Done:
        return;

      case Mode::Fetch:
        fetch(now);
        return;

      case Mode::Compute:
        if (now >= busyUntil_)
            mode_ = Mode::Fetch;
        else
            stats_.active_cycles++;
        return;

      case Mode::LoadIssue:
        cbArrived_ = false;
        if (l1_.load(instr_.addr))
            mode_ = Mode::LoadWait;
        return;

      case Mode::LoadWait:
        if (cbArrived_) {
            stats_.loads++;
            stats_.instructions++;
            mode_ = Mode::Fetch;
        } else {
            stats_.stall_cycles++;
        }
        return;

      case Mode::StoreIssue:
        if (l1_.store(instr_.addr, instr_.value)) {
            stats_.stores++;
            stats_.instructions++;
            mode_ = Mode::Fetch;
        } else {
            stats_.stall_cycles++; // store buffer full
        }
        return;

      // ----- test-and-test-and-set lock, ll/sc flavour -----
      case Mode::LockLl:
        cbArrived_ = false;
        if (l1_.loadLinked(instr_.addr))
            mode_ = Mode::LockLlWait;
        return;

      case Mode::LockLlWait:
        if (!cbArrived_) {
            stats_.stall_cycles++;
            return;
        }
        mode_ = cbValue_ == 0 ? Mode::LockSc : Mode::LockSpinPause;
        busyUntil_ = now + config_.spin_delay;
        return;

      case Mode::LockSc:
        cbArrived_ = false;
        if (l1_.storeConditional(instr_.addr, 1))
            mode_ = Mode::LockScWait;
        return;

      case Mode::LockScWait:
        if (!cbArrived_) {
            stats_.stall_cycles++;
            return;
        }
        if (cbSuccess_) {
            stats_.locks_acquired++;
            stats_.instructions++;
            scFails_ = 0;
            mode_ = Mode::Fetch;
        } else {
            scFails_ = std::min(scFails_ + 1, 8);
            const std::uint64_t window =
                static_cast<std::uint64_t>(config_.sc_backoff)
                << scFails_;
            busyUntil_ = now + 1 + rng_.nextBelow(window + 1);
            mode_ = Mode::LockRetryPause;
        }
        return;

      case Mode::LockRetryPause:
        if (now >= busyUntil_)
            mode_ = Mode::LockLl;
        return;

      case Mode::LockSpinPause:
        if (now >= busyUntil_) {
            stats_.spin_loops++;
            mode_ = Mode::LockSpinLoad;
        }
        return;

      case Mode::LockSpinLoad:
        cbArrived_ = false;
        if (l1_.load(instr_.addr))
            mode_ = Mode::LockSpinWait;
        return;

      case Mode::LockSpinWait:
        if (!cbArrived_) {
            stats_.stall_cycles++;
            return;
        }
        if (cbValue_ == 0) {
            mode_ = Mode::LockLl;
        } else {
            busyUntil_ = now + config_.spin_delay;
            mode_ = Mode::LockSpinPause;
        }
        return;

      case Mode::UnlockStore:
        if (l1_.store(instr_.addr, 0)) {
            stats_.instructions++;
            mode_ = Mode::Fetch;
        }
        return;

      // ----- sense-reversing barrier with ll/sc fetch-and-increment -----
      case Mode::BarLl:
        cbArrived_ = false;
        if (l1_.loadLinked(instr_.addr))
            mode_ = Mode::BarLlWait;
        return;

      case Mode::BarLlWait:
        if (!cbArrived_) {
            stats_.stall_cycles++;
            return;
        }
        llValue_ = cbValue_;
        mode_ = Mode::BarSc;
        return;

      case Mode::BarSc:
        cbArrived_ = false;
        if (l1_.storeConditional(instr_.addr, llValue_ + 1))
            mode_ = Mode::BarScWait;
        return;

      case Mode::BarScWait:
        if (!cbArrived_) {
            stats_.stall_cycles++;
            return;
        }
        if (!cbSuccess_) {
            scFails_ = std::min(scFails_ + 1, 8);
            const std::uint64_t window =
                static_cast<std::uint64_t>(config_.sc_backoff)
                << scFails_;
            busyUntil_ = now + 1 + rng_.nextBelow(window + 1);
            mode_ = Mode::BarRetryPause;
            return;
        }
        scFails_ = 0;
        if (llValue_ + 1 == instr_.value) {
            mode_ = Mode::BarResetStore; // last arriver releases
        } else {
            busyUntil_ = now + config_.spin_delay;
            mode_ = Mode::BarSpinPause;
        }
        return;

      case Mode::BarResetStore:
        if (l1_.store(instr_.addr, 0))
            mode_ = Mode::BarReleaseStore;
        return;

      case Mode::BarReleaseStore:
        if (l1_.store(instr_.addr + 64, mySense_)) {
            stats_.barriers_passed++;
            stats_.instructions++;
            mode_ = Mode::Fetch;
        }
        return;

      case Mode::BarRetryPause:
        if (now >= busyUntil_)
            mode_ = Mode::BarLl;
        return;

      case Mode::BarSpinPause:
        if (now >= busyUntil_) {
            stats_.spin_loops++;
            mode_ = Mode::BarSpinLoad;
        }
        return;

      case Mode::BarSpinLoad:
        cbArrived_ = false;
        if (l1_.load(instr_.addr + 64))
            mode_ = Mode::BarSpinWait;
        return;

      case Mode::BarSpinWait:
        if (!cbArrived_) {
            stats_.stall_cycles++;
            return;
        }
        if (cbValue_ == mySense_) {
            stats_.barriers_passed++;
            stats_.instructions++;
            mode_ = Mode::Fetch;
        } else {
            busyUntil_ = now + config_.spin_delay;
            mode_ = Mode::BarSpinPause;
        }
        return;

      // ----- subscription-mode synchronization (Section 5.1) -----
      case Mode::SubLlSend: {
        const bool barrier_sense_phase =
            instr_.op == Op::Barrier && syncStep_ == 5;
        const Addr word = barrier_sense_phase ? instr_.addr + 64
                                              : instr_.addr;
        // Subscribe when we may need pushed updates: the lock word, or
        // the barrier sense word.
        const bool subscribe =
            instr_.op == Op::Lock || barrier_sense_phase;
        if (sendSync(MsgType::SyncLl, word, 0, subscribe, false))
            mode_ = Mode::SubLlWait;
        return;
      }

      case Mode::SubLlWait:
        if (!subDirectArrived_) {
            stats_.stall_cycles++;
            return;
        }
        subDirectArrived_ = false;
        if (instr_.op == Op::Lock) {
            if (subDirectValue_ == 0) {
                mode_ = Mode::SubScSend;
            } else {
                stats_.spin_loops++;
                mode_ = Mode::SubSpin; // wait for a pushed 0
            }
            return;
        }
        FSOI_ASSERT(instr_.op == Op::Barrier);
        if (syncStep_ == 5) {
            if (subDirectValue_ == mySense_) {
                stats_.barriers_passed++;
                stats_.instructions++;
                mode_ = Mode::Fetch;
            } else {
                stats_.spin_loops++;
                mode_ = Mode::SubSpin;
            }
            return;
        }
        llValue_ = subDirectValue_;
        mode_ = Mode::SubScSend;
        return;

      case Mode::SubScSend: {
        const std::uint64_t value =
            instr_.op == Op::Lock ? 1 : llValue_ + 1;
        if (sendSync(MsgType::SyncSc, instr_.addr, value, false, false))
            mode_ = Mode::SubScWait;
        return;
      }

      case Mode::SubScWait:
        if (!subDirectArrived_) {
            stats_.stall_cycles++;
            return;
        }
        subDirectArrived_ = false;
        if (instr_.op == Op::Lock) {
            if (subDirectSuccess_) {
                stats_.locks_acquired++;
                stats_.instructions++;
                mode_ = Mode::Fetch;
            } else {
                syncStep_ = 0;
                mode_ = Mode::SubLlSend;
            }
            return;
        }
        FSOI_ASSERT(instr_.op == Op::Barrier);
        if (!subDirectSuccess_) {
            syncStep_ = 0;
            mode_ = Mode::SubLlSend;
            return;
        }
        if (llValue_ + 1 == instr_.value) {
            syncStep_ = 3; // last arriver: reset count, flip sense
            mode_ = Mode::SubStoreSend;
        } else {
            syncStep_ = 5; // subscribe to the sense word and wait
            mode_ = Mode::SubLlSend;
        }
        return;

      case Mode::SubSpin: {
        const Addr word = instr_.op == Op::Lock ? instr_.addr
                                                : instr_.addr + 64;
        const std::uint64_t want =
            instr_.op == Op::Lock ? 0 : mySense_;
        const auto it = subValues_.find(word);
        if (it != subValues_.end() && it->second == want) {
            if (instr_.op == Op::Lock) {
                syncStep_ = 0;
                mode_ = Mode::SubLlSend; // re-ll to refresh the link
            } else {
                stats_.barriers_passed++;
                stats_.instructions++;
                mode_ = Mode::Fetch;
            }
        }
        return;
      }

      case Mode::SubStoreSend: {
        Addr word;
        std::uint64_t value;
        if (instr_.op == Op::Unlock) {
            word = instr_.addr;
            value = 0;
        } else if (syncStep_ == 3) {
            word = instr_.addr; // reset barrier count
            value = 0;
        } else {
            FSOI_ASSERT(syncStep_ == 4);
            word = instr_.addr + 64; // release the sense word
            value = mySense_;
        }
        if (sendSync(MsgType::SyncSc, word, value, false, true))
            mode_ = Mode::SubStoreWait;
        return;
      }

      case Mode::SubStoreWait:
        if (!subDirectArrived_) {
            stats_.stall_cycles++;
            return;
        }
        subDirectArrived_ = false;
        if (instr_.op == Op::Unlock) {
            stats_.instructions++;
            mode_ = Mode::Fetch;
        } else if (syncStep_ == 3) {
            syncStep_ = 4;
            mode_ = Mode::SubStoreSend;
        } else {
            stats_.barriers_passed++;
            stats_.instructions++;
            mode_ = Mode::Fetch;
        }
        return;
    }
}

void
Core::serialize(snapshot::Archive &ar)
{
    ar(mode_, instr_, busyUntil_, now_, cbArrived_, cbValue_, cbSuccess_);
    ar.sortedMap(senses_);
    ar(mySense_, llValue_, subWaitingDirect_, subWaitWord_,
       subDirectArrived_, subDirectValue_, subDirectSuccess_);
    ar.sortedMap(subValues_);
    ar(syncStep_, scFails_, rng_);

    ar(stats_.instructions, stats_.loads, stats_.stores,
       stats_.locks_acquired, stats_.barriers_passed, stats_.spin_loops,
       stats_.stall_cycles, stats_.active_cycles, stats_.sync_packets);

    FSOI_ASSERT(stream_ != nullptr, "core %u has no instruction stream",
                node_);
    stream_->serialize(ar);
}

void
Core::debugDump() const
{
    std::fprintf(stderr,
                 "core %u: mode=%d op=%d addr=%llx step=%d instr=%llu "
                 "waitdirect=%d waitword=%llx mysense=%llu llv=%llu\n",
                 node_, (int)mode_, (int)instr_.op,
                 (unsigned long long)instr_.addr, syncStep_,
                 (unsigned long long)stats_.instructions.value(),
                 (int)subWaitingDirect_,
                 (unsigned long long)subWaitWord_,
                 (unsigned long long)mySense_,
                 (unsigned long long)llValue_);
}

} // namespace fsoi::cpu

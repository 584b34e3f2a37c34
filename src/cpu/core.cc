#include "cpu/core.hh"

#include <algorithm>
#include <array>
#include <initializer_list>

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

Core::Wait
Core::waitOf(Mode mode)
{
    // The one mode table. A mode not listed is an issue step: it makes
    // progress (or retries) every cycle, so it is never woken late.
    static constexpr auto table = [] {
        std::array<Wait, static_cast<std::size_t>(Mode::Done) + 1> t{};
        t.fill(Wait::Issue);
        auto set = [&t](Wait wait, std::initializer_list<Mode> modes) {
            for (const Mode m : modes)
                t[static_cast<std::size_t>(m)] = wait;
        };
        set(Wait::Compute, {Mode::Compute});
        set(Wait::Pause, {Mode::LockSpinPause, Mode::LockRetryPause,
                          Mode::BarSpinPause, Mode::BarRetryPause});
        set(Wait::L1, {Mode::LoadWait, Mode::LockLlWait, Mode::LockScWait,
                       Mode::LockSpinWait, Mode::BarLlWait, Mode::BarScWait,
                       Mode::BarSpinWait});
        set(Wait::Reply,
            {Mode::SubLlWait, Mode::SubScWait, Mode::SubStoreWait});
        set(Wait::SubSpin, {Mode::SubSpin});
        set(Wait::Done, {Mode::Done});
        return t;
    }();
    return table[static_cast<std::size_t>(mode)];
}

bool
Core::waitOver(Wait wait, Cycle now) const
{
    switch (wait) {
      case Wait::Issue:
        return true;
      case Wait::Compute:
      case Wait::Pause:
        return now >= busyUntil_;
      case Wait::L1:
        return cbArrived_;
      case Wait::Reply:
        return subDirectArrived_;
      case Wait::SubSpin:
        return subSpinSatisfied();
      case Wait::Done:
        return false;
    }
    return false;
}

Counter *
Core::waitCounter(Wait wait)
{
    switch (wait) {
      case Wait::Compute:
        return &stats_.active_cycles;
      case Wait::L1:
      case Wait::Reply:
        return &stats_.stall_cycles;
      default:
        return nullptr;
    }
}

bool
Core::accrue(Wait wait, Cycle now)
{
    if (waitOver(wait, now))
        return false;
    if (Counter *counter = waitCounter(wait))
        ++*counter;
    return true;
}

Cycle
Core::nextEventCycle(Cycle now) const
{
    // A timed wait sleeps until busyUntil_. Any other mode moves next
    // cycle once its wait is over, else only on the delivery that ends
    // it: the System wakes the core for every L1 completion and every
    // control bit (a pushed subscription value included).
    const Wait wait = waitOf(mode_);
    if (timed(wait))
        return std::max(busyUntil_, now + 1);
    return waitOver(wait, now) ? now + 1 : kNoCycle;
}

void
Core::catchUp(Cycle now)
{
    // Reconstruct the per-cycle counter updates the tick-every-cycle
    // engine would have made over the skipped span (now_, now): the
    // gap covers cycles now_ + 1 .. now - 1, exclusive of the tick
    // about to run at `now` which does its own accounting. A timed
    // wait accrued each skipped cycle before busyUntil_ (the scheduler
    // wakes it there; min() guards spurious late wakes). A delivery
    // wait accrued every skipped cycle: each preceded the arrival,
    // because the System wakes the core for a same-cycle tick on every
    // delivery.
    const Wait wait = waitOf(mode_);
    Counter *counter = waitCounter(wait);
    if (!counter)
        return;
    const Cycle end = timed(wait) ? std::min(now, busyUntil_) : now;
    if (end > now_ + 1)
        *counter += end - now_ - 1;
}

void
Core::syncStats(Cycle now)
{
    if (now > now_ + 1)
        catchUp(now);
    if (now > now_) {
        // Account the boundary cycle `now` itself the way a tick at
        // `now` would have: the sampler reads after components ran.
        accrue(waitOf(mode_), now);
        now_ = now;
    }
}

void
Core::issue(bool accepted, Mode wait)
{
    cbArrived_ = false;
    if (accepted)
        mode_ = wait;
}

void
Core::backoff(Cycle now, Mode pause)
{
    scFails_ = std::min(scFails_ + 1, 8);
    const std::uint64_t window =
        static_cast<std::uint64_t>(config_.sc_backoff) << scFails_;
    busyUntil_ = now + 1 + rng_.nextBelow(window + 1);
    mode_ = pause;
}

void
Core::retire()
{
    stats_.instructions++;
    mode_ = Mode::Fetch;
}

void
Core::passBarrier()
{
    stats_.barriers_passed++;
    retire();
}

void
Core::tick(Cycle now)
{
    if (now > now_ + 1)
        catchUp(now);
    now_ = now;
    // A mode whose wait is not over only accrues this cycle.
    const Wait wait = waitOf(mode_);
    if (accrue(wait, now))
        return;
    if (wait == Wait::Reply)
        subDirectArrived_ = false; // the direct reply is consumed
    switch (mode_) {
      case Mode::Done:
        return; // not reached: a Done core's wait never ends

      case Mode::Fetch:
        fetch(now);
        return;

      case Mode::Compute:
        mode_ = Mode::Fetch;
        return;

      case Mode::LoadIssue:
        issue(l1_.load(instr_.addr), Mode::LoadWait);
        return;

      case Mode::LoadWait:
        stats_.loads++;
        retire();
        return;

      case Mode::StoreIssue:
        if (l1_.store(instr_.addr, instr_.value)) {
            stats_.stores++;
            retire();
        } else {
            stats_.stall_cycles++; // store buffer full
        }
        return;

      // ----- test-and-test-and-set lock, ll/sc flavour -----
      case Mode::LockLl:
        issue(l1_.loadLinked(instr_.addr), Mode::LockLlWait);
        return;

      case Mode::LockLlWait:
        mode_ = cbValue_ == 0 ? Mode::LockSc : Mode::LockSpinPause;
        busyUntil_ = now + config_.spin_delay;
        return;

      case Mode::LockSc:
        issue(l1_.storeConditional(instr_.addr, 1), Mode::LockScWait);
        return;

      case Mode::LockScWait:
        if (cbSuccess_) {
            stats_.locks_acquired++;
            scFails_ = 0;
            retire();
        } else {
            backoff(now, Mode::LockRetryPause);
        }
        return;

      case Mode::LockRetryPause:
        mode_ = Mode::LockLl;
        return;

      case Mode::LockSpinPause:
        stats_.spin_loops++;
        mode_ = Mode::LockSpinLoad;
        return;

      case Mode::LockSpinLoad:
        issue(l1_.load(instr_.addr), Mode::LockSpinWait);
        return;

      case Mode::LockSpinWait:
        if (cbValue_ == 0) {
            mode_ = Mode::LockLl;
        } else {
            busyUntil_ = now + config_.spin_delay;
            mode_ = Mode::LockSpinPause;
        }
        return;

      case Mode::UnlockStore:
        if (l1_.store(instr_.addr, 0))
            retire();
        return;

      // ----- sense-reversing barrier with ll/sc fetch-and-increment -----
      case Mode::BarLl:
        issue(l1_.loadLinked(instr_.addr), Mode::BarLlWait);
        return;

      case Mode::BarLlWait:
        llValue_ = cbValue_;
        mode_ = Mode::BarSc;
        return;

      case Mode::BarSc:
        issue(l1_.storeConditional(instr_.addr, llValue_ + 1),
              Mode::BarScWait);
        return;

      case Mode::BarScWait:
        if (!cbSuccess_) {
            backoff(now, Mode::BarRetryPause);
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
        if (l1_.store(instr_.addr + 64, mySense_))
            passBarrier();
        return;

      case Mode::BarRetryPause:
        mode_ = Mode::BarLl;
        return;

      case Mode::BarSpinPause:
        stats_.spin_loops++;
        mode_ = Mode::BarSpinLoad;
        return;

      case Mode::BarSpinLoad:
        issue(l1_.load(instr_.addr + 64), Mode::BarSpinWait);
        return;

      case Mode::BarSpinWait:
        if (cbValue_ == mySense_) {
            passBarrier();
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
                passBarrier();
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
        if (instr_.op == Op::Lock) {
            if (subDirectSuccess_) {
                stats_.locks_acquired++;
                retire();
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

      case Mode::SubSpin:
        // The watched word holds the wanted value.
        if (instr_.op == Op::Lock) {
            syncStep_ = 0;
            mode_ = Mode::SubLlSend; // re-ll to refresh the link
        } else {
            passBarrier();
        }
        return;

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
        if (instr_.op == Op::Unlock) {
            retire();
        } else if (syncStep_ == 3) {
            syncStep_ = 4;
            mode_ = Mode::SubStoreSend;
        } else {
            passBarrier();
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
Core::writeJson(std::ostream &os) const
{
    os << "{\"node\":" << node_ << ",\"done\":"
       << (done() ? "true" : "false") << ",\"mode\":"
       << static_cast<int>(mode_) << ",\"op\":"
       << static_cast<int>(instr_.op) << ",\"addr\":" << instr_.addr
       << ",\"instructions\":" << stats_.instructions.value()
       << ",\"sync_step\":" << syncStep_ << ",\"sense\":" << mySense_
       << ",\"ll_value\":" << llValue_;
    if (subWaitingDirect_)
        os << ",\"sub_wait_word\":" << subWaitWord_;
    os << "}";
}

} // namespace fsoi::cpu

/**
 * @file
 * System-level checkpoint/restore: assembles the per-component
 * saveState/loadState implementations into a hash-verified snapshot
 * (snapshot/archive.hh) and rebuilds the scheduler runtime around the
 * restored state.
 *
 * Capture point is the top of a cycle, before the network tick. The
 * wake bitmaps and the event calendar are memoization of per-component
 * wake cycles that are pure functions of component state
 * (Component::nextEventCycle()), so neither is serialized. Restore
 * re-seeds the scheduler by waking every component with pending work
 * once; the first tick re-arms exact wakes.
 *
 * The local-hop FIFO is written in queue order. That order is already
 * canonical — ascending (due, phase, dst): self-sends happen only in
 * the component phases (directories, then L1s, then cores, each in
 * ascending node order) and the hop latency is constant, so dues never
 * decrease along the queue. Checkpoints written by earlier versions,
 * which sorted the queue by that key, therefore restore unchanged.
 */

#include "sim/system.hh"

#include "coherence/message_io.hh"
#include "common/logging.hh"
#include "snapshot/archive.hh"

namespace fsoi::sim {

const char *
System::netSectionPrefix() const
{
    switch (config_.network) {
      case NetKind::Mesh: return "mesh";
      case NetKind::Fsoi: return "fsoi";
      default: return "net";
    }
}

void
System::saveSnapshot(snapshot::SnapshotWriter &snap) const
{
    // Config fingerprint: restore refuses a snapshot taken under a
    // different machine shape.
    snapshot::Writer &meta = snap.section("meta");
    meta.u32(static_cast<std::uint32_t>(config_.num_cores));
    meta.u32(static_cast<std::uint32_t>(config_.num_memctls));
    meta.u8(static_cast<std::uint8_t>(config_.network));
    meta.u64(config_.seed);
    meta.boolean(config_.opt_confirmation_ack);
    meta.boolean(config_.opt_sync_subscription);
    meta.boolean(config_.opt_data_collision);
    meta.boolean(fault_ != nullptr);
    meta.u64(now_);

    snapshot::Writer &mem = snap.section("memory");
    const auto words = funcMem_.exportWords();
    mem.u64(words.size());
    for (const auto &[addr, value] : words) {
        mem.u64(addr);
        mem.u64(value);
    }

    network_->saveSnapshot(snap, netSectionPrefix());
    if (fault_)
        fault_->saveState(snap.section("fault"));

    for (int n = 0; n < config_.num_cores; ++n) {
        const std::string id = std::to_string(n);
        cores_[n]->saveState(snap.section("core" + id));
        l1s_[n]->saveState(snap.section("core" + id + ".l1"));
        dirs_[n]->saveState(snap.section("dir" + id));
    }
    for (int m = 0; m < config_.num_memctls; ++m)
        memctls_[m]->saveState(snap.section("mem" + std::to_string(m)));

    snapshot::Writer &sched = snap.section("sched");
    sched.u64(localQueue_.size());
    for (const LocalMsg &m : localQueue_) {
        sched.u64(m.due);
        sched.u32(m.dst);
        coherence::saveMessage(sched, m.msg);
    }
}

void
System::saveCheckpoint(const std::string &path) const
{
    snapshot::SnapshotWriter snap;
    saveSnapshot(snap);
    snap.writeFile(path);
}

void
System::restoreSnapshot(const snapshot::SnapshotReader &snap)
{
    snapshot::Reader meta = snap.open("meta");
    const auto cores = meta.u32();
    const auto memctls = meta.u32();
    const auto netkind = meta.u8();
    const auto seed = meta.u64();
    const bool conf_ack = meta.boolean();
    const bool sync_sub = meta.boolean();
    const bool data_coll = meta.boolean();
    const bool faulted = meta.boolean();
    if (cores != static_cast<std::uint32_t>(config_.num_cores)
        || memctls != static_cast<std::uint32_t>(config_.num_memctls)
        || netkind != static_cast<std::uint8_t>(config_.network)
        || seed != config_.seed
        || conf_ack != config_.opt_confirmation_ack
        || sync_sub != config_.opt_sync_subscription
        || data_coll != config_.opt_data_collision
        || faulted != (fault_ != nullptr)) {
        throw snapshot::SnapshotError(
            "snapshot.config_mismatch: snapshot is "
            + std::to_string(cores) + " cores / "
            + std::to_string(memctls) + " memctls / "
            + netKindName(static_cast<NetKind>(netkind)) + " / seed "
            + std::to_string(seed) + ", this system is "
            + std::to_string(config_.num_cores) + " / "
            + std::to_string(config_.num_memctls) + " / "
            + netKindName(config_.network) + " / seed "
            + std::to_string(config_.seed));
    }
    const Cycle at = meta.u64();

    {
        snapshot::Reader r = snap.open("memory");
        std::vector<std::pair<Addr, std::uint64_t>> words;
        const std::uint64_t n = r.u64();
        words.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr addr = r.u64();
            words.emplace_back(addr, r.u64());
        }
        funcMem_.importWords(words);
    }

    network_->loadSnapshot(snap, netSectionPrefix());
    if (fault_) {
        snapshot::Reader r = snap.open("fault");
        fault_->loadState(r);
    }

    for (int n = 0; n < config_.num_cores; ++n) {
        const std::string id = std::to_string(n);
        {
            snapshot::Reader r = snap.open("core" + id);
            cores_[n]->loadState(r);
        }
        {
            snapshot::Reader r = snap.open("core" + id + ".l1");
            l1s_[n]->loadState(r, cores_[n]->completionCallback());
        }
        {
            snapshot::Reader r = snap.open("dir" + id);
            dirs_[n]->loadState(r);
        }
    }
    for (int m = 0; m < config_.num_memctls; ++m) {
        snapshot::Reader r = snap.open("mem" + std::to_string(m));
        memctls_[m]->loadState(r);
    }

    localQueue_.clear();
    {
        snapshot::Reader r = snap.open("sched");
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            LocalMsg msg;
            msg.due = r.u64();
            msg.dst = static_cast<NodeId>(r.u32());
            msg.msg = coherence::loadMessage(r);
            localQueue_.push_back(std::move(msg));
        }
    }

    now_ = at;
    startCycle_ = at;
    restoredRun_ = true;
}

void
System::restoreCheckpoint(const std::string &path)
{
    const snapshot::SnapshotReader snap =
        snapshot::SnapshotReader::fromFile(path);
    restoreSnapshot(snap);
}

void
System::setCheckpoint(std::string path, Cycle every)
{
    checkpointPath_ = std::move(path);
    checkpointEvery_ = every;
}

} // namespace fsoi::sim

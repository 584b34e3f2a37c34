/**
 * @file
 * System-level checkpoint/restore: one serialize() walks every
 * component's own serialize() into a hash-verified snapshot
 * (snapshot/serialize.hh), section by section, and a restore rebuilds
 * the scheduler runtime around the loaded state.
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

#include "snapshot/serialize.hh"

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
System::serialize(snapshot::Sections &snap)
{
    // Config fingerprint: a restore refuses a snapshot taken under a
    // different machine shape.
    snapshot::Archive meta = snap.open("meta");
    auto cores = static_cast<std::uint32_t>(config_.num_cores);
    auto memctls = static_cast<std::uint32_t>(config_.num_memctls);
    NetKind net = config_.network;
    std::uint64_t seed = config_.seed;
    bool conf_ack = config_.opt_confirmation_ack;
    bool sync_sub = config_.opt_sync_subscription;
    bool data_coll = config_.opt_data_collision;
    bool faulted = fault_ != nullptr;
    meta(cores, memctls, net, seed, conf_ack, sync_sub, data_coll, faulted);
    if (cores != static_cast<std::uint32_t>(config_.num_cores)
        || memctls != static_cast<std::uint32_t>(config_.num_memctls)
        || net != config_.network || seed != config_.seed
        || conf_ack != config_.opt_confirmation_ack
        || sync_sub != config_.opt_sync_subscription
        || data_coll != config_.opt_data_collision
        || faulted != (fault_ != nullptr)) {
        throw snapshot::SnapshotError(
            "snapshot.config_mismatch: snapshot is "
            + std::to_string(cores) + " cores / "
            + std::to_string(memctls) + " memctls / "
            + netKindName(net) + " / seed " + std::to_string(seed)
            + ", this system is " + std::to_string(config_.num_cores)
            + " / " + std::to_string(config_.num_memctls) + " / "
            + netKindName(config_.network) + " / seed "
            + std::to_string(config_.seed));
    }
    Cycle at = now_;
    meta(at);

    snap.io("memory", funcMem_);
    network_->serialize(snap, netSectionPrefix());
    if (fault_)
        snap.io("fault", *fault_);

    for (int n = 0; n < config_.num_cores; ++n) {
        const std::string id = std::to_string(n);
        snap.io("core" + id, *cores_[n]);
        snap.io("core" + id + ".l1", *l1s_[n]);
        snap.io("dir" + id, *dirs_[n]);
    }
    for (int m = 0; m < config_.num_memctls; ++m)
        snap.io("mem" + std::to_string(m), *memctls_[m]);

    snapshot::Archive sched = snap.open("sched");
    sched.seq(localQueue_, [&](LocalMsg &m) { sched(m.due, m.dst, m.msg); });

    if (sched.loading()) {
        now_ = at;
        startCycle_ = at;
        restoredRun_ = true;
    }
}

void
System::saveCheckpoint(const std::string &path) const
{
    snapshot::SnapshotWriter out(path);
    snapshot::Sections snap(out);
    // Saving only reads: serialize() is shared with restore, hence not
    // const, but never writes to the state it saves.
    const_cast<System *>(this)->serialize(snap);
    out.commit();
}

void
System::restoreCheckpoint(const std::string &path)
{
    const auto in = snapshot::SnapshotReader::fromFile(path);
    snapshot::Sections snap(in);
    serialize(snap);
}

void
System::setCheckpoint(std::string path, Cycle every)
{
    checkpointPath_ = std::move(path);
    checkpointEvery_ = every;
}

} // namespace fsoi::sim

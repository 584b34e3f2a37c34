#include "workload/apps.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "snapshot/serialize.hh"

namespace fsoi::workload {

void
InstrStream::serialize(snapshot::Archive &)
{
    fatal("this instruction-stream kind is not checkpointable");
}

namespace {

constexpr int kLineBytes = 32;

/** Generator expanding an AppProfile into a deterministic stream. */
class SyntheticStream : public InstrStream
{
  public:
    SyntheticStream(const AppProfile &profile, int thread, int num_threads,
                    std::uint64_t seed)
        : profile_(profile), thread_(thread), numThreads_(num_threads),
          rng_(seed ^ (0x51ed2701ULL * (thread + 1)))
    {
        FSOI_ASSERT(num_threads >= 1);
        privateBase_ = kPrivateBase
            + static_cast<Addr>(thread) * kPrivateStride;
    }

    Instr
    next() override
    {
        if (!queue_.empty()) {
            Instr instr = queue_.front();
            queue_.pop_front();
            return instr;
        }
        if (finished_)
            return Instr{}; // Op::End forever

        if (issued_ >= profile_.instructions) {
            finished_ = true;
            // Close with a barrier so threads end together, mirroring
            // the paper's fixed-workload measurement windows.
            queue_.push_back(barrier(0));
            queue_.push_back(Instr{Op::End, 0, 0, 0});
            return next();
        }

        generateChunk();
        return next();
    }

    /**
     * Checkpoint/restore. The profile and thread layout are
     * construction config (the restoring run rebuilds the stream from
     * the same experiment description); only generator state is
     * serialized. A fingerprint of the invariants guards against
     * restoring into a differently configured stream.
     */
    void
    serialize(snapshot::Archive &ar) override
    {
        std::uint32_t thread = static_cast<std::uint32_t>(thread_);
        std::uint32_t threads = static_cast<std::uint32_t>(numThreads_);
        std::uint64_t budget = profile_.instructions;
        ar(thread, threads, budget);
        FSOI_ASSERT(thread == static_cast<std::uint32_t>(thread_)
                        && threads == static_cast<std::uint32_t>(numThreads_)
                        && budget == profile_.instructions,
                    "snapshot stream does not match this workload config");
        ar(rng_, privLine_, readStream_, writeStream_, issued_, opsDone_,
           nextBarrierAt_, nextLockAt_, barSeq_, finished_);
        ar.seq(queue_);
    }

  private:
    Instr
    barrier(int id) const
    {
        Instr instr;
        instr.op = Op::Barrier;
        instr.addr = kBarrierBase + static_cast<Addr>(id) * 128;
        instr.value = numThreads_;
        return instr;
    }

    Addr
    privateAddr()
    {
        if (!rng_.nextBool(profile_.locality))
            privLine_ = rng_.nextBelow(profile_.private_lines);
        else
            privLine_ = (privLine_ + 1) % profile_.private_lines;
        return privateBase_ + static_cast<Addr>(privLine_) * kLineBytes;
    }

    struct BlockStream
    {
        std::uint64_t block = 0;
        std::uint64_t walk = 0;
        bool valid = false;
        /** Recently visited blocks; revisits hit in the L2. */
        std::vector<std::uint64_t> pool;

        void
        serialize(snapshot::Archive &ar)
        {
            ar(block, walk, valid);
            ar.seq(pool);
        }
    };

    /**
     * Deterministic part of the region the sharing pattern allows for
     * this access. @p moving reports whether the region drifts over
     * time (so a parked block must be abandoned when it leaves).
     */
    void
    sharedRegion(bool is_write, std::uint64_t &start, std::uint64_t &size,
                 bool &moving) const
    {
        const int total = profile_.shared_lines;
        moving = false;
        start = 0;
        size = total;
        switch (profile_.sharing) {
          case Sharing::Uniform:
            return;
          case Sharing::ReadMostly: {
            // A small per-thread hot write set at the front of the
            // space; the read-mostly bulk sits behind it, so readers
            // do not camp on lines being actively written.
            const int hot = std::max(numThreads_, total / 16);
            if (is_write) {
                const int slice = std::max(1, hot / numThreads_);
                start = static_cast<std::uint64_t>(thread_) * slice;
                size = slice;
            } else {
                start = hot;
                size = std::max(1, total - hot);
            }
            return;
          }
          case Sharing::ProducerConsumer: {
            // Phase-based: produce into the own region between one
            // barrier pair, consume the neighbour's freshly written
            // region in the next (FFT transpose / radix permute
            // style). Writers and readers never race on a region.
            const int region = std::max(1, total / numThreads_);
            const bool consume_phase = (barSeq_ % 2) == 1;
            const int owner = (!is_write && consume_phase)
                ? (thread_ + 1) % numThreads_
                : thread_;
            start = static_cast<std::uint64_t>(owner) * region;
            size = region;
            moving = consume_phase;
            return;
          }
          case Sharing::Migratory: {
            const int region = std::max(1, total / 16);
            start = ((opsDone_ / 256) % 16) * region;
            size = region;
            moving = true;
            return;
          }
        }
    }

    Addr
    sharedAddr(bool is_write)
    {
        std::uint64_t start, size;
        bool moving;
        sharedRegion(is_write, start, size, moving);

        // Writes get their own walk only when the pattern puts them in
        // a different region than reads; otherwise one combined stream
        // maximizes reuse.
        bool separate = false;
        if (is_write) {
            std::uint64_t rstart, rsize;
            bool rmoving;
            sharedRegion(false, rstart, rsize, rmoving);
            separate = rstart != start || rsize != size;
        }
        BlockStream &st = separate ? writeStream_ : readStream_;

        const std::uint64_t block_len =
            std::min<std::uint64_t>(profile_.shared_block_lines, size);
        const bool outside = moving
            && (st.block < start || st.block + block_len > start + size);
        if (!st.valid || outside
            || rng_.nextBool(profile_.shared_block_switch)) {
            // Uniform data is mostly thread-affine (each thread works
            // its own partition) with occasional cross-thread blocks;
            // this keeps two threads from camping on the same lines.
            if (profile_.sharing == Sharing::Uniform
                && !rng_.nextBool(0.25)) {
                const std::uint64_t slice = std::max<std::uint64_t>(
                    block_len, profile_.shared_lines / numThreads_);
                start = std::min<std::uint64_t>(
                    static_cast<std::uint64_t>(thread_) * slice,
                    profile_.shared_lines - slice);
                size = slice;
            }
            // Temporal reuse: revisit a recent block most of the time
            // (those lines are L2-resident), otherwise touch a fresh
            // one. Real kernels iterate over the same tiles repeatedly.
            std::uint64_t next = start
                + rng_.nextBelow(std::max<std::uint64_t>(
                    1, size - block_len + 1));
            if (!st.pool.empty() && rng_.nextBool(0.75)) {
                const std::uint64_t cand =
                    st.pool[rng_.nextBelow(st.pool.size())];
                if (cand >= start && cand + block_len <= start + size)
                    next = cand;
            }
            st.block = next;
            if (st.pool.size() < 12)
                st.pool.push_back(next);
            else
                st.pool[rng_.nextBelow(12)] = next;
            st.walk = 0;
            st.valid = true;
        }
        const std::uint64_t line = st.block + (st.walk++ % block_len);
        return kSharedBase + line * kLineBytes;
    }

    void
    emitMemOp()
    {
        const bool is_write = rng_.nextBool(profile_.write_frac);
        const bool is_shared = rng_.nextBool(profile_.shared_frac);
        Instr instr;
        instr.op = is_write ? Op::Store : Op::Load;
        instr.addr = is_shared ? sharedAddr(is_write) : privateAddr();
        instr.value = rng_.next() & 0xff;
        queue_.push_back(instr);
        opsDone_++;
    }

    void
    generateChunk()
    {
        // Compute burst sized so memory ops arrive at mem_ratio.
        const double mean_gap =
            std::max(0.0, 1.0 / profile_.mem_ratio - 1.0);
        const std::uint32_t gap = static_cast<std::uint32_t>(
            std::lround(std::min(200.0,
                                 rng_.nextExponential(mean_gap + 1e-9))));
        if (gap > 0) {
            queue_.push_back(Instr{Op::Compute, 0, gap, 0});
            issued_ += gap;
        }

        // Periodic barrier? Only thresholds strictly inside the budget
        // count, so every thread emits the same barrier sequence no
        // matter how its random compute bursts land around the end.
        if (profile_.barrier_period > 0
            && nextBarrierAt_ < profile_.instructions
            && issued_ >= nextBarrierAt_) {
            nextBarrierAt_ += profile_.barrier_period;
            queue_.push_back(barrier(1 + (barSeq_++ % 3)));
            issued_ += 1;
            return;
        }

        // Critical section?
        if (profile_.lock_period > 0
            && opsDone_ >= nextLockAt_) {
            nextLockAt_ += profile_.lock_period;
            const std::uint64_t lock_id =
                rng_.nextBelow(profile_.num_locks);
            const Addr lock = kLockBase + lock_id * 64;
            queue_.push_back(Instr{Op::Lock, lock, 0, 0});
            // Each lock protects a small shared object (4 lines) just
            // past the regular shared space.
            const Addr object = kSharedBase
                + (static_cast<Addr>(profile_.shared_lines)
                   + lock_id * 4) * kLineBytes;
            for (int i = 0; i < profile_.critical_ops; ++i) {
                Instr instr;
                instr.op = i == 0 ? Op::Load : Op::Store;
                instr.addr = object + (i % 4) * kLineBytes;
                instr.value = rng_.next() & 0xff;
                queue_.push_back(instr);
                opsDone_++;
            }
            queue_.push_back(Instr{Op::Unlock, lock, 0, 0});
            issued_ += 2 + profile_.critical_ops;
            return;
        }

        emitMemOp();
        issued_ += 1;
    }

    AppProfile profile_;
    int thread_;
    int numThreads_;
    Rng rng_;
    Addr privateBase_;
    std::uint64_t privLine_ = 0;
    BlockStream readStream_;
    BlockStream writeStream_;
    std::uint64_t issued_ = 0;
    std::uint64_t opsDone_ = 0;
    std::uint64_t nextBarrierAt_ = 1000;
    std::uint64_t nextLockAt_ = 50;
    std::uint64_t barSeq_ = 0;
    bool finished_ = false;
    std::deque<Instr> queue_;
};

AppProfile
make(const char *name, double mem_ratio, double write_frac,
     double shared_frac, int private_lines, int shared_lines,
     double locality, double block_switch, Sharing sharing,
     int lock_period, int barrier_period)
{
    AppProfile profile;
    profile.name = name;
    profile.mem_ratio = mem_ratio;
    profile.write_frac = write_frac;
    profile.shared_frac = shared_frac;
    profile.private_lines = private_lines;
    profile.shared_lines = shared_lines;
    profile.locality = locality;
    profile.shared_block_switch = block_switch;
    profile.sharing = sharing;
    profile.lock_period = lock_period;
    profile.barrier_period = barrier_period;
    return profile;
}

} // namespace

AppProfile
AppProfile::scaled(double factor) const
{
    AppProfile copy = *this;
    copy.instructions = static_cast<std::uint64_t>(
        std::max(1.0, instructions * factor));
    return copy;
}

std::vector<AppProfile>
paperApps()
{
    // name          mem   wr    shr   priv shared  loc  blkSw  sharing            lockP barP
    return {
        make("barnes",    0.30, 0.25, 0.35, 120, 4096, 0.85, 0.0030, Sharing::Uniform,          400, 0),
        make("cholesky",  0.28, 0.30, 0.30, 112, 3072, 0.88, 0.0025, Sharing::Uniform,          250, 0),
        make("fmm",       0.27, 0.25, 0.30, 116, 3072, 0.86, 0.0030, Sharing::Uniform,          350, 0),
        make("fft",       0.38, 0.40, 0.55, 120, 8192, 0.80, 0.0040, Sharing::ProducerConsumer, 0,   2500),
        make("lu",        0.30, 0.30, 0.35, 104, 2048, 0.92, 0.0010, Sharing::ReadMostly,       0,   2000),
        make("ocean",     0.40, 0.35, 0.50, 120, 8192, 0.78, 0.0050, Sharing::Uniform,          0,   1500),
        make("radiosity", 0.28, 0.30, 0.40, 116, 3072, 0.84, 0.0035, Sharing::Uniform,          120, 0),
        make("radix",     0.36, 0.50, 0.55, 120, 8192, 0.75, 0.0050, Sharing::ProducerConsumer, 0,   2500),
        make("raytrace",  0.32, 0.15, 0.50, 120, 8192, 0.78, 0.0030, Sharing::ReadMostly,       150, 0),
        make("ws",        0.26, 0.25, 0.25, 104, 2048, 0.92, 0.0015, Sharing::Uniform,          500, 4000),
        make("em3d",      0.36, 0.30, 0.60, 120, 6144, 0.76, 0.0040, Sharing::ProducerConsumer, 0,   2000),
        make("ilink",     0.30, 0.25, 0.40, 112, 4096, 0.85, 0.0030, Sharing::ReadMostly,       0,   3000),
        make("jacobi",    0.33, 0.25, 0.50, 112, 6144, 0.86, 0.0030, Sharing::ProducerConsumer, 0,   1800),
        make("mp3d",      0.42, 0.45, 0.60, 120, 8192, 0.70, 0.0060, Sharing::Migratory,        0,   3000),
        make("shallow",   0.36, 0.35, 0.50, 116, 6144, 0.80, 0.0040, Sharing::Uniform,          0,   2000),
        make("tsp",       0.30, 0.35, 0.25, 112, 2048, 0.82, 0.0020, Sharing::Migratory,        300, 0),
    };
}

AppProfile
idleHeavyProfile()
{
    // mem_ratio 0.005 -> mean compute gap of 199 cycles between
    // memory ops (most draws hit the 200-cycle cap), so the cores sit
    // in long busyUntil_ stretches the event calendar skips over
    // wholesale. No locks/barriers: the point is quiescent-system
    // throughput, not contention. The larger instruction budget keeps
    // the timed run long enough that System construction does not
    // dominate the wall time.
    AppProfile profile =
        make("idle", 0.005, 0.25, 0.25, 104, 2048, 0.92, 0.0015,
             Sharing::Uniform, 0, 0);
    profile.instructions = 320000;
    return profile;
}

AppProfile
appByName(const std::string &name)
{
    for (const auto &app : paperApps())
        if (app.name == name)
            return app;
    if (name == "idle")
        return idleHeavyProfile();
    fatal("unknown application '%s'", name.c_str());
}

std::unique_ptr<InstrStream>
makeAppStream(const AppProfile &profile, int thread, int num_threads,
              std::uint64_t seed)
{
    return std::make_unique<SyntheticStream>(profile, thread, num_threads,
                                             seed);
}

} // namespace fsoi::workload

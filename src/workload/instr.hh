/**
 * @file
 * The abstract instruction stream a core executes.
 *
 * Workload generators (one per application profile) produce these
 * coarse-grained operations; the core expands Lock/Unlock/Barrier into
 * ll/sc spin sequences, so synchronization generates realistic
 * coherence traffic (invalidation bursts, quasi-synchronized acks).
 */

#ifndef FSOI_WORKLOAD_INSTR_HH
#define FSOI_WORKLOAD_INSTR_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"

namespace fsoi::snapshot { class Archive; }

namespace fsoi::workload {

/** Operation kinds a stream may emit. */
enum class Op : std::uint8_t
{
    Compute, //!< cycles of ALU work (IPC 1)
    Load,    //!< read addr
    Store,   //!< write addr
    Lock,    //!< acquire the lock word at addr
    Unlock,  //!< release the lock word at addr
    Barrier, //!< barrier episode: count word at addr, sense at addr+64
    End,     //!< thread finished
};

/** One coarse-grained instruction. */
struct Instr
{
    Op op = Op::End;
    Addr addr = 0;
    std::uint32_t cycles = 0;  //!< Compute: duration
    std::uint64_t value = 0;   //!< Store: value; Barrier: thread count

    /** Checkpoint hook (snapshot/serialize.hh). */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(op, addr, cycles, value);
    }
};

/** A per-thread instruction source. */
class InstrStream
{
  public:
    virtual ~InstrStream() = default;

    /** Produce the next instruction (returns Op::End forever at EOS). */
    virtual Instr next() = 0;

    /**
     * Checkpoint/restore (snapshot/serialize.hh). The default fatal()s:
     * a stream kind that carries generator state must override it, or
     * runs using it cannot be checkpointed.
     */
    virtual void serialize(snapshot::Archive &ar);
};

} // namespace fsoi::workload

#endif // FSOI_WORKLOAD_INSTR_HH

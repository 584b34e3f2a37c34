/**
 * @file
 * Protocol tests: MESI state transitions of Table 2 observed through a
 * full System with scripted instruction streams, plus global coherence
 * invariants checked at quiescence.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <vector>

#include "sim/system.hh"

namespace fsoi {
namespace {

using coherence::DirState;
using coherence::L1State;
using workload::Instr;
using workload::Op;

/** Replays a fixed instruction vector. */
class ScriptedStream : public workload::InstrStream
{
  public:
    explicit ScriptedStream(std::vector<Instr> instrs)
        : instrs_(std::move(instrs))
    {}

    Instr
    next() override
    {
        if (pos_ >= instrs_.size())
            return Instr{}; // End
        return instrs_[pos_++];
    }

  private:
    std::vector<Instr> instrs_;
    std::size_t pos_ = 0;
};

Instr
load(Addr a)
{
    return Instr{Op::Load, a, 0, 0};
}

Instr
store(Addr a, std::uint64_t v = 1)
{
    return Instr{Op::Store, a, 0, v};
}

Instr
end()
{
    return Instr{Op::End, 0, 0, 0};
}

sim::SystemConfig
smallConfig(sim::NetKind kind)
{
    sim::SystemConfig cfg = sim::SystemConfig::paperConfig(16, kind);
    if (kind != sim::NetKind::Fsoi) {
        cfg.opt_confirmation_ack = false;
        cfg.opt_sync_subscription = false;
        cfg.opt_data_collision = false;
    }
    cfg.max_cycles = 5'000'000;
    return cfg;
}

/** Build a system where every core runs the given script (or idles). */
std::unique_ptr<sim::System>
makeSystem(sim::NetKind kind,
           const std::map<int, std::vector<Instr>> &scripts)
{
    auto sys = std::make_unique<sim::System>(smallConfig(kind));
    for (int n = 0; n < 16; ++n) {
        auto it = scripts.find(n);
        sys->bindStream(n, std::make_unique<ScriptedStream>(
            it == scripts.end() ? std::vector<Instr>{end()}
                                : it->second));
    }
    return sys;
}

// Address whose home directory is node H (line interleaving % 16).
Addr
addrWithHome(int home, int index = 0)
{
    return (static_cast<Addr>(index) * 16 + home) * 32 + 0x100000ULL * 0
        + 0x40000000ULL; // keep clear of workload spaces
}

TEST(MessageTable, EveryTypeHasTheRowOfItsOldSwitches)
{
    using coherence::Controller;
    using coherence::MsgType;
    using noc::PacketClass;
    using noc::PacketKind;
    // Written out from the switches the table replaced (msgTypeName,
    // isDataMessage, packetKindOf, System::routeMessage), in
    // enumerator order.
    struct Row
    {
        MsgType type;
        const char *name;
        PacketClass cls;
        PacketKind kind;
        Controller receiver;
    };
    const Row expected[] = {
        {MsgType::ReqSh, "ReqSh", PacketClass::Meta, PacketKind::Request,
         Controller::Directory},
        {MsgType::ReqEx, "ReqEx", PacketClass::Meta, PacketKind::Request,
         Controller::Directory},
        {MsgType::ReqUpg, "ReqUpg", PacketClass::Meta, PacketKind::Request,
         Controller::Directory},
        {MsgType::SyncLl, "SyncLl", PacketClass::Meta, PacketKind::Request,
         Controller::Directory},
        {MsgType::SyncSc, "SyncSc", PacketClass::Meta, PacketKind::Request,
         Controller::Directory},
        {MsgType::DataS, "DataS", PacketClass::Data, PacketKind::Reply,
         Controller::L1},
        {MsgType::DataE, "DataE", PacketClass::Data, PacketKind::Reply,
         Controller::L1},
        {MsgType::DataM, "DataM", PacketClass::Data, PacketKind::Reply,
         Controller::L1},
        {MsgType::ExcAck, "ExcAck", PacketClass::Meta, PacketKind::Ack,
         Controller::L1},
        {MsgType::Nack, "Nack", PacketClass::Meta, PacketKind::Control,
         Controller::L1},
        {MsgType::SyncReply, "SyncReply", PacketClass::Meta,
         PacketKind::Control, Controller::None},
        {MsgType::Inv, "Inv", PacketClass::Meta, PacketKind::Control,
         Controller::L1},
        {MsgType::Dwg, "Dwg", PacketClass::Meta, PacketKind::Control,
         Controller::L1},
        {MsgType::InvAck, "InvAck", PacketClass::Meta, PacketKind::Ack,
         Controller::Directory},
        {MsgType::InvAckData, "InvAckData", PacketClass::Data,
         PacketKind::WriteBack, Controller::Directory},
        {MsgType::DwgAck, "DwgAck", PacketClass::Meta, PacketKind::Ack,
         Controller::Directory},
        {MsgType::DwgAckData, "DwgAckData", PacketClass::Data,
         PacketKind::WriteBack, Controller::Directory},
        {MsgType::WriteBack, "WriteBack", PacketClass::Data,
         PacketKind::WriteBack, Controller::Directory},
        {MsgType::MemRead, "MemRead", PacketClass::Meta,
         PacketKind::MemRequest, Controller::None},
        {MsgType::MemWrite, "MemWrite", PacketClass::Data,
         PacketKind::MemRequest, Controller::None},
        {MsgType::MemReply, "MemReply", PacketClass::Data,
         PacketKind::MemReply, Controller::Directory},
    };
    ASSERT_EQ(std::size(expected), coherence::kNumMsgTypes);
    ASSERT_EQ(std::size(coherence::kMsgTypes), coherence::kNumMsgTypes);
    for (std::size_t i = 0; i < std::size(expected); ++i) {
        const Row &want = expected[i];
        ASSERT_EQ(static_cast<std::size_t>(want.type), i);
        const auto &row = coherence::msgTypeInfo(want.type);
        EXPECT_STREQ(coherence::msgTypeName(want.type), want.name);
        EXPECT_EQ(row.cls, want.cls) << want.name;
        EXPECT_EQ(coherence::isDataMessage(want.type),
                  want.cls == PacketClass::Data)
            << want.name;
        EXPECT_EQ(coherence::packetKindOf(want.type), want.kind)
            << want.name;
        EXPECT_EQ(row.receiver, want.receiver) << want.name;
    }
    EXPECT_STREQ(coherence::msgTypeName(
                     static_cast<MsgType>(coherence::kNumMsgTypes)),
                 "?");
}

TEST(Coherence, ReadMissGrantsExclusiveClean)
{
    const Addr a = addrWithHome(7);
    auto sys = makeSystem(sim::NetKind::Mesh, {{3, {load(a), end()}}});
    const auto res = sys->run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(sys->l1(3).lineState(a), L1State::E);
    EXPECT_EQ(sys->directory(7).lineState(a), DirState::DM);
}

TEST(Coherence, WriteMissGrantsModified)
{
    const Addr a = addrWithHome(7);
    auto sys = makeSystem(sim::NetKind::Mesh, {{3, {store(a), end()}}});
    ASSERT_TRUE(sys->run().completed);
    EXPECT_EQ(sys->l1(3).lineState(a), L1State::M);
    EXPECT_EQ(sys->directory(7).lineState(a), DirState::DM);
}

TEST(Coherence, TwoReadersShare)
{
    const Addr a = addrWithHome(5);
    auto sys = makeSystem(sim::NetKind::Mesh,
                          {{2, {load(a), end()}}, {9, {load(a), end()}}});
    ASSERT_TRUE(sys->run().completed);
    // One reader was downgraded from E to S when the second arrived.
    EXPECT_EQ(sys->l1(2).lineState(a), L1State::S);
    EXPECT_EQ(sys->l1(9).lineState(a), L1State::S);
    EXPECT_EQ(sys->directory(5).lineState(a), DirState::DS);
    const auto sharers = sys->directory(5).sharersOf(a);
    EXPECT_TRUE(sharers & (1ULL << 2));
    EXPECT_TRUE(sharers & (1ULL << 9));
}

TEST(Coherence, WriterInvalidatesReaders)
{
    const Addr a = addrWithHome(5);
    // Readers first (compute delays stagger them), then a writer.
    auto sys = makeSystem(
        sim::NetKind::Mesh,
        {{2, {load(a), end()}},
         {9, {load(a), end()}},
         {12, {Instr{Op::Compute, 0, 400, 0}, store(a, 7), end()}}});
    ASSERT_TRUE(sys->run().completed);
    EXPECT_EQ(sys->l1(2).lineState(a), L1State::I);
    EXPECT_EQ(sys->l1(9).lineState(a), L1State::I);
    EXPECT_EQ(sys->l1(12).lineState(a), L1State::M);
    EXPECT_EQ(sys->directory(5).lineState(a), DirState::DM);
    EXPECT_GT(sys->l1(2).stats().invalidations_received.value()
                  + sys->l1(9).stats().invalidations_received.value(),
              0u);
}

TEST(Coherence, UpgradeFromShared)
{
    const Addr a = addrWithHome(4);
    auto sys = makeSystem(
        sim::NetKind::Mesh,
        {{2, {load(a), Instr{Op::Compute, 0, 300, 0}, store(a, 3),
              end()}},
         {9, {load(a), end()}}});
    ASSERT_TRUE(sys->run().completed);
    EXPECT_EQ(sys->l1(2).lineState(a), L1State::M);
    EXPECT_EQ(sys->l1(9).lineState(a), L1State::I);
    EXPECT_GT(sys->l1(2).stats().upgrades.value()
                  + sys->l1(2).stats().misses.value(),
              0u);
}

TEST(Coherence, DirtyEvictionWritesBack)
{
    // Write a line, then walk enough conflicting lines to evict it.
    const Addr a = addrWithHome(4, 0);
    std::vector<Instr> script{store(a, 42)};
    // 8 KB 2-way L1 with 128 sets: lines 128 and 256 indexes conflict.
    for (int i = 1; i <= 3; ++i)
        script.push_back(load(a + static_cast<Addr>(i) * 128 * 16 * 32));
    script.push_back(end());
    auto sys = makeSystem(sim::NetKind::Mesh, {{2, std::move(script)}});
    ASSERT_TRUE(sys->run().completed);
    EXPECT_EQ(sys->l1(2).lineState(a), L1State::I);
    EXPECT_GE(sys->l1(2).stats().writebacks.value(), 1u);
    // The directory reabsorbed the dirty line.
    EXPECT_EQ(sys->directory(4).lineState(a), DirState::DV);
}

TEST(Coherence, ReaderAfterWriterSeesValue)
{
    const Addr a = addrWithHome(6);
    auto sys = makeSystem(
        sim::NetKind::Mesh,
        {{1, {store(a, 99), end()}},
         {8, {Instr{Op::Compute, 0, 2000, 0}, load(a), end()}}});
    ASSERT_TRUE(sys->run().completed);
    // Writer downgraded to S by the reader's request.
    EXPECT_EQ(sys->l1(1).lineState(a), L1State::S);
    EXPECT_EQ(sys->l1(8).lineState(a), L1State::S);
    EXPECT_EQ(sys->directory(6).lineState(a), DirState::DS);
    EXPECT_GE(sys->l1(1).stats().downgrades_received.value(), 1u);
}

TEST(Coherence, LocalHomeShortCircuit)
{
    // Node 3 accessing a line whose home is node 3: no network needed.
    const Addr a = addrWithHome(3);
    auto sys = makeSystem(sim::NetKind::Mesh, {{3, {load(a), end()}}});
    ASSERT_TRUE(sys->run().completed);
    EXPECT_EQ(sys->l1(3).lineState(a), L1State::E);
}

TEST(Coherence, LockMutualExclusionCounts)
{
    // All cores acquire the same lock a few times; total acquisitions
    // must equal total requests (no lost or duplicated acquisitions).
    std::map<int, std::vector<Instr>> scripts;
    const Addr lock = workload::kLockBase;
    for (int n = 0; n < 16; ++n) {
        std::vector<Instr> s;
        for (int i = 0; i < 3; ++i) {
            s.push_back(Instr{Op::Lock, lock, 0, 0});
            s.push_back(Instr{Op::Compute, 0, 5, 0});
            s.push_back(Instr{Op::Unlock, lock, 0, 0});
        }
        s.push_back(end());
        scripts[n] = std::move(s);
    }
    auto sys = makeSystem(sim::NetKind::Mesh, scripts);
    ASSERT_TRUE(sys->run().completed);
    std::uint64_t acquired = 0;
    for (int n = 0; n < 16; ++n)
        acquired += sys->core(n).stats().locks_acquired.value();
    EXPECT_EQ(acquired, 16u * 3u);
}

TEST(Coherence, BarrierAllThreadsPass)
{
    std::map<int, std::vector<Instr>> scripts;
    for (int n = 0; n < 16; ++n) {
        scripts[n] = {Instr{Op::Compute, 0,
                            static_cast<std::uint32_t>(10 + n * 7), 0},
                      Instr{Op::Barrier, workload::kBarrierBase, 0, 16},
                      Instr{Op::Barrier, workload::kBarrierBase, 0, 16},
                      end()};
    }
    auto sys = makeSystem(sim::NetKind::Mesh, scripts);
    ASSERT_TRUE(sys->run().completed);
    for (int n = 0; n < 16; ++n)
        EXPECT_EQ(sys->core(n).stats().barriers_passed.value(), 2u);
}

/**
 * Global invariant, checked at quiescence after a real app run:
 *  - an L1 line in M or E implies the home directory is DM with that
 *    node as owner;
 *  - no two L1s hold the same line writable;
 *  - an L1 line in S implies it is in the home's sharer set.
 */
void
checkInvariants(sim::System &sys, sim::NetKind kind)
{
    (void)kind;
    // Probe the shared footprint: pairwise writable exclusivity plus
    // L1/directory agreement through the public interfaces.
    for (Addr line = workload::kSharedBase;
         line < workload::kSharedBase + 2048 * 32; line += 32) {
        int writable = 0;
        for (int n = 0; n < 16; ++n) {
            const auto state = sys.l1(n).lineState(line);
            if (state == L1State::M || state == L1State::E) {
                ++writable;
                const NodeId home = sys.homeOf(line);
                EXPECT_EQ(sys.directory(home).lineState(line),
                          DirState::DM)
                    << "line " << std::hex << line;
            }
            if (state == L1State::S) {
                const NodeId home = sys.homeOf(line);
                EXPECT_TRUE(sys.directory(home).sharersOf(line)
                            & (1ULL << n))
                    << "line " << std::hex << line;
            }
        }
        EXPECT_LE(writable, 1) << "line " << std::hex << line;
    }
}

// The app is a std::string, not a const char *, so the test names carry
// the app name rather than a per-process string-literal address.
class CoherenceInvariants
    : public ::testing::TestWithParam<std::tuple<sim::NetKind,
                                                 std::string>>
{};

TEST_P(CoherenceInvariants, HoldAtQuiescence)
{
    const auto kind = std::get<0>(GetParam());
    const std::string app = std::get<1>(GetParam());
    auto cfg = smallConfig(kind);
    sim::System sys(cfg);
    sys.loadApp(workload::appByName(app).scaled(0.05));
    const auto res = sys.run();
    ASSERT_TRUE(res.completed);
    checkInvariants(sys, kind);
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndNets, CoherenceInvariants,
    ::testing::Combine(::testing::Values(sim::NetKind::Mesh,
                                         sim::NetKind::Fsoi,
                                         sim::NetKind::L0),
                       ::testing::Values("barnes", "mp3d", "fft")));

} // namespace
} // namespace fsoi

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in fsoi-sim owns its own Rng seeded from the
 * experiment seed plus a component-unique stream id, so simulations are
 * reproducible bit-for-bit regardless of component tick order.
 *
 * The generator is xoshiro256** (public domain, Blackman & Vigna) seeded
 * through splitmix64.
 */

#ifndef FSOI_COMMON_RNG_HH
#define FSOI_COMMON_RNG_HH

#include <cstdint>

#include "common/logging.hh"

namespace fsoi {

/** Small, fast, deterministic PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Seed from a 64-bit value; distinct seeds give independent streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        reseed(seed);
    }

    /** Re-seed in place (runs the splitmix64 expansion). */
    void
    reseed(std::uint64_t seed)
    {
        for (auto &word : state_)
            word = splitmix64(seed);
    }

    /** Checkpoint hook (snapshot/serialize.hh): the raw state. */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(state_);
    }

    /** Next raw 64-bit output. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        FSOI_ASSERT(bound > 0);
        // Lemire-style rejection-free for our (non-cryptographic) needs:
        // 128-bit multiply keeps the bias below 2^-64.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::uint64_t
    nextRange(std::uint64_t lo, std::uint64_t hi)
    {
        FSOI_ASSERT(lo <= hi);
        return lo + nextBelow(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    nextBool(double p)
    {
        return nextDouble() < p;
    }

    /** Geometric-ish burst helper: exponential with the given mean. */
    double nextExponential(double mean);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** splitmix64 step; advances @p x and returns a decorrelated output. */
    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t state_[4];
};

} // namespace fsoi

#endif // FSOI_COMMON_RNG_HH

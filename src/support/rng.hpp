// Deterministic pseudo-random number generation for the whole library.
//
// Everything in glitchmask that needs randomness -- mask shares, refresh
// bits, plaintext selection, delay jitter, measurement noise -- draws from
// an explicitly seeded generator so that every experiment is reproducible
// bit-for-bit.  We use xoshiro256++ (public domain, Blackman/Vigna) seeded
// through SplitMix64, which is both much faster than std::mt19937_64 and
// free of its seeding pitfalls.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace glitchmask {

/// SplitMix64 step: turns an arbitrary 64-bit seed stream into well-mixed
/// values.  Used to seed Xoshiro256 and to derive per-instance static
/// jitter from (seed, instance-id) pairs without constructing a generator.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// One-shot hash of two 64-bit values to a well-mixed 64-bit value.
/// Handy for "seed per (netlist-seed, gate-id)" style derivations.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
    std::uint64_t s = a ^ (b * 0x9e3779b97f4a7c15ULL);
    std::uint64_t v = splitmix64(s);
    return splitmix64(s) ^ v;
}

/// xoshiro256++ generator.  Satisfies std::uniform_random_bit_generator so
/// it can drive <random> distributions, but also offers the small helpers
/// (bit(), chance(), uniform()) the library uses in hot loops.
class Xoshiro256 {
public:
    using result_type = std::uint64_t;

    /// Seed through SplitMix64 so that nearby seeds give unrelated streams.
    explicit constexpr Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
        std::uint64_t sm = seed;
        for (auto& word : state_) word = splitmix64(sm);
    }

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    constexpr result_type operator()() noexcept {
        const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// One uniformly random bit.
    [[nodiscard]] constexpr bool bit() noexcept { return ((*this)() >> 63) != 0; }

    /// `n` (<= 64) uniformly random bits in the low positions.
    [[nodiscard]] constexpr std::uint64_t bits(unsigned n) noexcept {
        return n == 0 ? 0 : (*this)() >> (64u - n);
    }

    /// Uniform double in [0, 1).
    [[nodiscard]] constexpr double uniform() noexcept {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    [[nodiscard]] constexpr double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }

    /// Xoshiro256(seed).uniform() without building the generator: the
    /// first xoshiro256++ output reads only state words 0 and 3, i.e. the
    /// first and fourth SplitMix64 words of `seed`.
    [[nodiscard]] static constexpr double first_uniform(
        std::uint64_t seed) noexcept {
        std::uint64_t sm = seed;
        const std::uint64_t s0 = splitmix64(sm);
        sm = seed + 3 * 0x9e3779b97f4a7c15ULL;
        const std::uint64_t s3 = splitmix64(sm);
        return static_cast<double>((rotl(s0 + s3, 23) + s0) >> 11) * 0x1.0p-53;
    }

    /// Uniform integer in [0, n).  n must be > 0.  Uses Lemire rejection.
    [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept;

    /// Bernoulli draw with probability p of returning true.
    [[nodiscard]] constexpr bool chance(double p) noexcept { return uniform() < p; }

    /// Standard-normal draw (Marsaglia polar method with cached spare).
    [[nodiscard]] double gaussian() noexcept;

    /// Normal draw with the given mean and standard deviation.
    [[nodiscard]] double gaussian(double mean, double sigma) noexcept {
        return mean + sigma * gaussian();
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
    double spare_ = 0.0;
    bool has_spare_ = false;
};

}  // namespace glitchmask

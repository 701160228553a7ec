// AVX-512 form of DelayModel's batched draws: eight first uniforms of
// Xoshiro256(mix64(seed, key)) per step.  Every operation is a 64-bit
// integer op (vpmullq needs AVX-512DQ) except the final exact conversion
// and power-of-two scaling, so each lane equals the scalar
// Xoshiro256::first_uniform(mix64(seed, key)) bit for bit.  Compiled with
// -mavx512f -mavx512dq -ffp-contract=off.
#include <cstddef>
#include <cstdint>

#include "support/rng.hpp"

#if defined(GLITCHMASK_HAVE_AVX512)

#include <immintrin.h>

namespace glitchmask::sim::delay_draws_avx512 {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// Shifts and the rotate are GCC vector operations: GCC 12 warns
// spuriously inside the shift and rotate intrinsics' headers.
using U64x8 = std::uint64_t __attribute__((vector_size(64)));

inline __m512i shr(__m512i z, int n) {
    return reinterpret_cast<__m512i>(reinterpret_cast<U64x8>(z) >> n);
}

inline __m512i rotl(__m512i z, int n) {
    const U64x8 x = reinterpret_cast<U64x8>(z);
    return reinterpret_cast<__m512i>((x << n) | (x >> (64 - n)));
}

/// SplitMix64's output function (splitmix64 after its state increment).
inline __m512i finalize(__m512i z) {
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, shr(z, 30)),
                           _mm512_set1_epi64(static_cast<long long>(
                               0xbf58476d1ce4e5b9ULL)));
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, shr(z, 27)),
                           _mm512_set1_epi64(static_cast<long long>(
                               0x94d049bb133111ebULL)));
    return _mm512_xor_si512(z, shr(z, 31));
}

inline __m512i plus_golden(__m512i x, std::uint64_t times) {
    return _mm512_add_epi64(
        x, _mm512_set1_epi64(static_cast<long long>(times * kGolden)));
}

}  // namespace

void first_uniforms(std::uint64_t seed, const std::uint64_t* keys,
                    std::size_t count, double* out) {
    const __m512i vseed = _mm512_set1_epi64(static_cast<long long>(seed));
    const __m512i golden = _mm512_set1_epi64(static_cast<long long>(kGolden));
    const __m512d scale = _mm512_set1_pd(0x1.0p-53);
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        // mix64(seed, key): two SplitMix64 words of seed ^ key * golden.
        const __m512i s = _mm512_xor_si512(
            vseed, _mm512_mullo_epi64(_mm512_loadu_si512(keys + i), golden));
        const __m512i x = _mm512_xor_si512(finalize(plus_golden(s, 2)),
                                           finalize(plus_golden(s, 1)));
        // Xoshiro256(x)'s first output: state words 0 and 3.
        const __m512i s0 = finalize(plus_golden(x, 1));
        const __m512i s3 = finalize(plus_golden(x, 4));
        const __m512i r = _mm512_add_epi64(
            rotl(_mm512_add_epi64(s0, s3), 23), s0);
        _mm512_storeu_pd(
            out + i, _mm512_mul_pd(_mm512_cvtepu64_pd(shr(r, 11)), scale));
    }
    for (; i < count; ++i)
        out[i] = Xoshiro256::first_uniform(mix64(seed, keys[i]));
}

}  // namespace glitchmask::sim::delay_draws_avx512

#endif  // GLITCHMASK_HAVE_AVX512

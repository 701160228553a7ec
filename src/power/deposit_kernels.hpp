// Lane-mask deposit kernels behind runtime SIMD dispatch.
//
// BatchPowerRecorder::on_toggle is the single hottest non-simulator loop
// in a campaign (one call per committed toggle word, ~11M calls per 1024
// DES traces): walk the set bits of a 64-lane toggle mask, bump that
// lane's Hamming counter and add the net's energy weight to that lane's
// current-bin sample.  Each lane is an independent accumulator, so the
// walk vectorizes across lanes without touching any lane's FP operation
// order: the AVX2 form rewrites untouched lanes with their original bits
// (load/add/blend/store) and the AVX-512 form uses masked adds, so every
// dispatch level produces bit-identical samples (asserted with == in
// tests/batch_sim_test and tests/moment_bank_test).
//
// The vector TUs are compiled with their -m flag plus -ffp-contract=off;
// the kernels are pure adds, but the flag pins that down against future
// edits introducing a fusable multiply.
//
// The scalar bit-walks are defined here, inline, because the recorder's
// sparse branch calls them directly on the per-toggle path.  They have
// internal linkage (unnamed namespace) on purpose: the vector TUs include
// this header under -mavx2/-mavx512f, so an external inline copy could
// let the linker keep a vector-encoded body for the portable callers.
#pragma once

#include <bit>
#include <cstdint>

namespace glitchmask::power::kernels {

/// row[lane] += weight and ++lane_toggles[lane] for every set lane.
using DepositFn = void (*)(double* row, std::uint64_t* lane_toggles,
                           std::uint64_t toggled, double weight);

/// row[lane] += weight + (opposite bit ? +eps : -eps), ++lane_toggles.
/// The weight+eps intermediate is one double add, as in the scalar path.
using DepositCoupledFn = void (*)(double* row, std::uint64_t* lane_toggles,
                                  std::uint64_t toggled,
                                  std::uint64_t opposite, double weight,
                                  double eps);

/// ++lane_toggles[lane] only (commit landed past the trace window).
using CountFn = void (*)(std::uint64_t* lane_toggles, std::uint64_t toggled);

struct DepositKernels {
    DepositFn deposit;
    DepositCoupledFn deposit_coupled;
    CountFn count;
};

namespace {

inline void deposit_scalar(double* row, std::uint64_t* lane_toggles,
                           std::uint64_t toggled, double weight) {
    for (std::uint64_t rest = toggled; rest != 0; rest &= rest - 1) {
        const unsigned lane = static_cast<unsigned>(std::countr_zero(rest));
        ++lane_toggles[lane];
        row[lane] += weight;
    }
}

inline void deposit_coupled_scalar(double* row, std::uint64_t* lane_toggles,
                                   std::uint64_t toggled,
                                   std::uint64_t opposite, double weight,
                                   double eps) {
    for (std::uint64_t rest = toggled; rest != 0; rest &= rest - 1) {
        const unsigned lane = static_cast<unsigned>(std::countr_zero(rest));
        ++lane_toggles[lane];
        row[lane] += weight + (((opposite >> lane) & 1u) != 0 ? eps : -eps);
    }
}

inline void count_scalar(std::uint64_t* lane_toggles, std::uint64_t toggled) {
    for (std::uint64_t rest = toggled; rest != 0; rest &= rest - 1)
        ++lane_toggles[std::countr_zero(rest)];
}

}  // namespace

#if defined(GLITCHMASK_HAVE_AVX2)
void deposit_avx2(double* row, std::uint64_t* lane_toggles,
                  std::uint64_t toggled, double weight);
void deposit_coupled_avx2(double* row, std::uint64_t* lane_toggles,
                          std::uint64_t toggled, std::uint64_t opposite,
                          double weight, double eps);
void count_avx2(std::uint64_t* lane_toggles, std::uint64_t toggled);
#endif
#if defined(GLITCHMASK_HAVE_AVX512)
void deposit_avx512(double* row, std::uint64_t* lane_toggles,
                    std::uint64_t toggled, double weight);
void deposit_coupled_avx512(double* row, std::uint64_t* lane_toggles,
                            std::uint64_t toggled, std::uint64_t opposite,
                            double weight, double eps);
void count_avx512(std::uint64_t* lane_toggles, std::uint64_t toggled);
#endif

/// Kernel set for support::active_simd_level(); never null pointers.
[[nodiscard]] DepositKernels resolve_deposit_kernels() noexcept;

}  // namespace glitchmask::power::kernels

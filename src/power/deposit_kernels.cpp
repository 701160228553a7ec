#include "power/deposit_kernels.hpp"

#include "support/simd.hpp"

namespace glitchmask::power::kernels {

DepositKernels resolve_deposit_kernels() noexcept {
    const support::SimdLevel level = support::active_simd_level();
#if defined(GLITCHMASK_HAVE_AVX512)
    if (level >= support::SimdLevel::kAvx512)
        return {deposit_avx512, deposit_coupled_avx512, count_avx512};
#endif
#if defined(GLITCHMASK_HAVE_AVX2)
    if (level >= support::SimdLevel::kAvx2)
        return {deposit_avx2, deposit_coupled_avx2, count_avx2};
#endif
    (void)level;
    return {deposit_scalar, deposit_coupled_scalar, count_scalar};
}

}  // namespace glitchmask::power::kernels

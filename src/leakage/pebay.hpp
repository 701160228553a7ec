// Pebay's arbitrary-order central-sum update coefficients (Pebay 2008),
// the one copy shared by MomentAccumulator, the MomentBank fold kernels
// and the bank merge.  All of them must produce the same coefficient
// values to the bit, and these are pure functions evaluated in one fixed
// operation order.
//
// Everything here has internal linkage (unnamed namespace) on purpose:
// moment_bank_avx2.cpp is compiled with -mavx2, so an external inline
// copy could let the linker keep that AVX2-encoded body for the portable
// callers too.
#pragma once

namespace glitchmask::leakage {
namespace {

/// Binomial coefficients up to the small orders we use (p <= ~12).
[[nodiscard]] inline double binomial(int n, int k) {
    double result = 1.0;
    for (int i = 1; i <= k; ++i)
        result = result * static_cast<double>(n - k + i) / static_cast<double>(i);
    return result;
}

[[nodiscard]] inline double ipow(double base, int exponent) {
    double result = 1.0;
    for (int i = 0; i < exponent; ++i) result *= base;
    return result;
}

/// The coefficients of one update over central-sum orders 2..max_order
/// (max_order <= 6, i.e. test orders up to 3).  They depend only on the
/// class counts, so a bank computes them once per row, not per point.
struct PebayCoefficients {
    double binom[7][7];
    double tail[7];
};

/// Single-point increment of a class holding `n1` > 0 values:
/// tail[p] = 1 - (-1/n1)^(p-1).
[[nodiscard]] inline PebayCoefficients increment_coefficients(int max_order,
                                                              double n1) {
    PebayCoefficients c{};
    for (int p = 2; p <= max_order; ++p) {
        for (int k = 1; k <= p - 2; ++k) c.binom[p][k] = binomial(p, k);
        c.tail[p] = 1.0 - ipow(-1.0 / n1, p - 1);
    }
    return c;
}

/// Pairwise merge of classes holding `na` and `nb` > 0 values:
/// tail[p] = 1/nb^(p-1) - (-1/na)^(p-1).
[[nodiscard]] inline PebayCoefficients merge_coefficients(int max_order,
                                                          double na,
                                                          double nb) {
    PebayCoefficients c{};
    for (int p = 2; p <= max_order; ++p) {
        for (int k = 1; k <= p - 2; ++k) c.binom[p][k] = binomial(p, k);
        c.tail[p] = 1.0 / ipow(nb, p - 1) - ipow(-1.0 / na, p - 1);
    }
    return c;
}

}  // namespace
}  // namespace glitchmask::leakage

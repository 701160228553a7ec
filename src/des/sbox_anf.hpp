// Algebraic Normal Form decomposition of the DES S-boxes (paper Sec. IV-A).
//
// Each 6-to-4 S-box is split into four 4-bit "mini S-boxes" (its rows,
// selected by the outer bits x0 = b5 and x5 = b0) plus a masked 4:1 MUX.
// Every mini S-box is a 4-bit permutation over the middle bits
// x1..x4 = b4..b1, so each coordinate has algebraic degree <= 3 and can
// be written as XOR of: a constant, linear terms x_i, and products of
// degree 2 or 3.  The ANF is computed here with a Moebius transform
// directly from the standard tables -- nothing is hard-coded -- and the
// tests verify the paper's claims (degree <= 3; at most 6 distinct
// degree-2 and 4 degree-3 monomials, all drawn from one fixed set of 10).
//
// Monomial encoding: a 4-bit mask over the mini S-box input, where mask
// bit 3 selects x1 (b4, MSB of the column index) down to mask bit 0
// selecting x4 (b1).  Mask 0 is the constant-1 term.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace glitchmask::des {

/// ANF of one mini S-box: per output bit (index 0 = y1, the MSB of the
/// S-box output nibble), the list of monomial masks with coefficient 1.
struct MiniSboxAnf {
    std::array<std::vector<std::uint8_t>, 4> terms;
};

/// Moebius transform of mini S-box (`box` 0..7, `row` 0..3).
[[nodiscard]] MiniSboxAnf mini_sbox_anf(unsigned box, unsigned row);

/// The same ANF as coefficient sets: bit `mask` of entry `bit` is set when
/// monomial `mask` appears in coordinate y_{bit+1} (ascending bit order is
/// MiniSboxAnf's term order).
[[nodiscard]] std::array<std::uint16_t, 4> mini_sbox_anf_bits(unsigned box,
                                                              unsigned row);

/// Evaluates the ANF on a 4-bit column value (bit 3 = x1).
[[nodiscard]] std::uint8_t eval_mini_anf(const MiniSboxAnf& anf,
                                         std::uint8_t column);

/// Highest monomial degree over all four coordinates.
[[nodiscard]] int max_degree(const MiniSboxAnf& anf);

/// The fixed set of 10 nonlinear monomials every mini S-box draws from:
/// all 6 degree-2 and all 4 degree-3 masks, in canonical ascending order.
[[nodiscard]] std::span<const std::uint8_t> all_product_monomials();

/// Index of `mask` within all_product_monomials(); throws if not there.
[[nodiscard]] std::size_t product_monomial_index(std::uint8_t mask);

}  // namespace glitchmask::des

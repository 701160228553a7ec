#include "des/sbox_anf.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "des/des_reference.hpp"

namespace glitchmask::des {

namespace {

constexpr std::array<std::uint8_t, 10> kProductMonomials = {
    0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100,  // degree 2
    0b0111, 0b1011, 0b1101, 0b1110};                 // degree 3

}  // namespace

std::array<std::uint16_t, 4> mini_sbox_anf_bits(unsigned box, unsigned row) {
    std::array<std::uint16_t, 4> bits{};
    for (unsigned bit = 0; bit < 4; ++bit) {
        // Truth table of coordinate y_{bit+1}: output nibble bit (3 - bit).
        std::array<std::uint8_t, 16> coeff{};
        for (unsigned column = 0; column < 16; ++column)
            coeff[column] =
                (mini_sbox(box, row, static_cast<std::uint8_t>(column)) >>
                 (3 - bit)) &
                1u;
        // In-place Moebius transform (XOR butterfly per variable).
        for (unsigned stride = 1; stride < 16; stride <<= 1)
            for (unsigned m = 0; m < 16; ++m)
                if ((m & stride) != 0) coeff[m] ^= coeff[m ^ stride];
        for (unsigned mask = 0; mask < 16; ++mask)
            bits[bit] |= static_cast<std::uint16_t>(coeff[mask] << mask);
    }
    return bits;
}

MiniSboxAnf mini_sbox_anf(unsigned box, unsigned row) {
    const std::array<std::uint16_t, 4> bits = mini_sbox_anf_bits(box, row);
    MiniSboxAnf anf;
    for (unsigned bit = 0; bit < 4; ++bit)
        for (unsigned mask = 0; mask < 16; ++mask)
            if ((bits[bit] >> mask) & 1u)
                anf.terms[bit].push_back(static_cast<std::uint8_t>(mask));
    return anf;
}

std::uint8_t eval_mini_anf(const MiniSboxAnf& anf, std::uint8_t column) {
    std::uint8_t out = 0;
    for (unsigned bit = 0; bit < 4; ++bit) {
        unsigned value = 0;
        for (const std::uint8_t mask : anf.terms[bit])
            value ^= ((column & mask) == mask) ? 1u : 0u;
        out |= static_cast<std::uint8_t>(value << (3 - bit));
    }
    return out;
}

int max_degree(const MiniSboxAnf& anf) {
    int degree = 0;
    for (const auto& terms : anf.terms)
        for (const std::uint8_t mask : terms)
            degree = std::max(degree, std::popcount(mask));
    return degree;
}

std::span<const std::uint8_t> all_product_monomials() {
    return kProductMonomials;
}

std::size_t product_monomial_index(std::uint8_t mask) {
    for (std::size_t i = 0; i < kProductMonomials.size(); ++i)
        if (kProductMonomials[i] == mask) return i;
    throw std::out_of_range("product_monomial_index: not a product monomial");
}

}  // namespace glitchmask::des

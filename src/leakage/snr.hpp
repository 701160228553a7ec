// Signal-to-noise ratio of a leakage sample with respect to a discrete
// intermediate value:  SNR = Var_v( E[x | v] ) / E_v( Var[x | v] ).
// A standalone utility: tests/leakage_test.cpp pins its value and its
// degenerate-input sentinels; no campaign path uses it.
#pragma once

#include <cstddef>
#include <vector>

namespace glitchmask::leakage {

class SnrAccumulator {
public:
    explicit SnrAccumulator(std::size_t classes);

    void add(std::size_t cls, double x);

    /// Variance of class means over mean of class variances; 0 while any
    /// populated class is degenerate or fewer than two classes have data.
    [[nodiscard]] double snr() const;

    [[nodiscard]] double class_mean(std::size_t cls) const;
    [[nodiscard]] double class_count(std::size_t cls) const;
    [[nodiscard]] std::size_t classes() const noexcept { return mean_.size(); }

private:
    std::vector<double> n_;
    std::vector<double> mean_;
    std::vector<double> m2_;
};

}  // namespace glitchmask::leakage

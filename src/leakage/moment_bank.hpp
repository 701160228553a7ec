// Structure-of-arrays TVLA statistics bank: the fixed-vs-random t-test
// state of every sample point of a trace, and the one statistics type the
// campaigns, benches and checkpoints use.
//
// Per class (fixed/random) the bank keeps one scalar trace count plus
// *planes* of means and central sums (row p holds sum((x - mean)^p) of
// every point contiguously).  Folding a trace updates all points'
// accumulators with identical scalar coefficients (n, n1, the Pebay
// binomial/correction terms depend only on the class count, which every
// point of a class shares), so the update vectorizes across points --
// AVX2 processes four bins per instruction -- without touching any single
// accumulator's FP operation order.  Every point is bit-identical to a
// scalar UnivariateTTest fed the same values, asserted with == in
// tests/moment_bank_test.cpp, and the serialized form is a u64 point
// count followed by each point's UnivariateTTest::encode, a checkpoint
// format pinned byte for byte by the same test.
//
// The class-count sharing is a structural invariant, not an assumption:
// add_trace() feeds every point, and decode() verifies it and rejects
// nonuniform input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "leakage/ttest.hpp"
#include "support/snapshot.hpp"

namespace glitchmask::leakage {

namespace bank_kernels {

/// Folds one trace row (`row[0..points)`) into a class's planes: the
/// Pebay single-point increment of every point, vectorized across
/// points.  `sums` row p starts at `sums + p * stride` (rows 0..max_order;
/// rows 0 and 1 are unused and stay zero); `stride` may exceed `points`
/// so a vector kernel can hand its remainder to the scalar form.
/// `n1`/`n` are the class count before/after this trace.  Scalar and
/// AVX2 forms are bit-identical (see support/simd.hpp).
using FoldRowFn = void (*)(double* mean, double* sums, std::size_t points,
                           std::size_t stride, int max_order, double n1,
                           double n, const double* row);

void fold_row_scalar(double* mean, double* sums, std::size_t points,
                     std::size_t stride, int max_order, double n1, double n,
                     const double* row);
#if defined(GLITCHMASK_HAVE_AVX2)
void fold_row_avx2(double* mean, double* sums, std::size_t points,
                   std::size_t stride, int max_order, double n1, double n,
                   const double* row);
#endif

/// Kernel for support::active_simd_level(); never null.
[[nodiscard]] FoldRowFn resolve_fold_row() noexcept;

}  // namespace bank_kernels

class MomentBank {
public:
    /// Empty bank (0 points); assignable from decode().
    MomentBank() = default;

    /// `max_test_order` in 1..3; central moments to 2*order are kept per
    /// point, exactly like UnivariateTTest(max_test_order) per point.
    MomentBank(std::size_t points, int max_test_order = 3);

    /// Folds one complete trace (`row[0..points())`) into the given
    /// class.  Equivalent to UnivariateTTest::add on every point in turn
    /// -- each per-point accumulator receives the same addend in the same
    /// position of its sequence -- but one vectorized pass.
    void add_trace(bool fixed_class, const double* row);

    /// Checked form: `row.size()` may exceed points() (extra samples are
    /// ignored) but not undercut it (std::invalid_argument).
    void add_trace(bool fixed_class, std::span<const double> row);

    /// Pairwise Pebay merge, bit-identical to merging the per-point
    /// accumulators (UnivariateTTest::merge).
    void merge(const MomentBank& other);

    [[nodiscard]] std::size_t points() const noexcept { return points_; }
    [[nodiscard]] int max_test_order() const noexcept { return max_test_order_; }

    /// Traces folded into a class (shared by every point of the class).
    [[nodiscard]] double count(bool fixed_class) const noexcept {
        return (fixed_class ? fixed_ : random_).n;
    }
    [[nodiscard]] double mean(bool fixed_class, std::size_t point) const;
    /// Central power sum sum((x - mean)^p) of a class at one point.
    [[nodiscard]] double central_sum(bool fixed_class, std::size_t point,
                                     int p) const;

    /// Welch t at `order` (1..max_test_order) for one point; sentinel 0.0
    /// for degenerate classes, exactly as UnivariateTTest::t.
    [[nodiscard]] double t(std::size_t point, int order) const;

    /// Batched finalization over the whole bank (one value per point).
    [[nodiscard]] std::vector<double> t_curve(int order) const;
    [[nodiscard]] double max_abs_t(int order,
                                   std::size_t* argmax = nullptr) const;
    [[nodiscard]] std::vector<std::size_t> exceedances(
        int order, double threshold = kTvlaThreshold) const;

    /// Exact binary serialization: u64 points, then per point the bytes
    /// UnivariateTTest::encode writes for the equivalent accumulator.
    void encode(SnapshotWriter& out) const;
    [[nodiscard]] static MomentBank decode(SnapshotReader& in);

private:
    struct ClassPlanes {
        double n = 0.0;
        std::vector<double> mean;  // [points]
        std::vector<double> sums;  // rows 0..max_order, each [points]
    };

    void fold(ClassPlanes& planes, const double* row);
    void merge_class(ClassPlanes& into, const ClassPlanes& from) const;

    [[nodiscard]] ClassMoments view(const ClassPlanes& planes,
                                    std::size_t point) const noexcept {
        return {planes.n, planes.mean[point], planes.sums.data() + point,
                points_};
    }

    std::size_t points_ = 0;
    int max_test_order_ = 0;
    int max_order_ = 0;  // 2 * max_test_order_
    ClassPlanes fixed_;
    ClassPlanes random_;
};

/// Paper decision rule (Sec. VII-A): indices where *every* bank exceeds
/// the threshold at the same sample (same order).  An implementation is
/// deemed first-order leaky only when this set is non-empty.
[[nodiscard]] std::vector<std::size_t> consistent_exceedances(
    std::span<const MomentBank> banks, int order,
    double threshold = kTvlaThreshold);

}  // namespace glitchmask::leakage

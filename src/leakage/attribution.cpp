#include "leakage/attribution.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "leakage/ttest.hpp"
#include "support/table.hpp"

namespace glitchmask::leakage {

// ----- plan ---------------------------------------------------------------

AttributionPlan::AttributionPlan(const netlist::Netlist& nl,
                                 std::size_t windows, sim::TimePs window_ps,
                                 std::string_view scope)
    : windows_(windows), window_ps_(window_ps), scope_(scope) {
    if (windows == 0 || window_ps <= 0)
        throw std::invalid_argument(
            "AttributionPlan: windows and window_ps must be positive");
    probe_of_.assign(nl.size(), kUnwatched);
    for (netlist::NetId id = 0; id < nl.size(); ++id) {
        if (!scope_.empty()) {
            const std::string& module = nl.module_names()[nl.module_of(id)];
            if (module.find(scope_) == std::string::npos) continue;
        }
        probe_of_[id] = static_cast<std::uint32_t>(nets_.size());
        nets_.push_back(id);
    }
}

// ----- accumulator --------------------------------------------------------

void AttributionAccumulator::merge(const AttributionAccumulator& other) {
    if (points_.size() != other.points_.size())
        throw std::invalid_argument(
            "AttributionAccumulator::merge: point count mismatch");
    traces_fixed += other.traces_fixed;
    traces_random += other.traces_random;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        PointStats& into = points_[i];
        const PointStats& from = other.points_[i];
        into.sum_fixed += from.sum_fixed;
        into.sumsq_fixed += from.sumsq_fixed;
        into.sum_random += from.sum_random;
        into.sumsq_random += from.sumsq_random;
        into.toggles += from.toggles;
        into.glitches += from.glitches;
    }
}

void AttributionAccumulator::encode(SnapshotWriter& out) const {
    out.u64(traces_fixed);
    out.u64(traces_random);
    out.u64(points_.size());
    for (const PointStats& p : points_) {
        out.f64(p.sum_fixed);
        out.f64(p.sumsq_fixed);
        out.f64(p.sum_random);
        out.f64(p.sumsq_random);
        out.u64(p.toggles);
        out.u64(p.glitches);
    }
}

AttributionAccumulator AttributionAccumulator::decode(SnapshotReader& in) {
    AttributionAccumulator acc;
    acc.traces_fixed = in.u64();
    acc.traces_random = in.u64();
    const std::uint64_t points = in.u64();
    acc.points_.resize(points);
    for (PointStats& p : acc.points_) {
        p.sum_fixed = in.f64();
        p.sumsq_fixed = in.f64();
        p.sum_random = in.f64();
        p.sumsq_random = in.f64();
        p.toggles = in.u64();
        p.glitches = in.u64();
    }
    return acc;
}

// ----- scalar probe -------------------------------------------------------

AttributionProbe::AttributionProbe(const AttributionPlan& plan,
                                   sim::ToggleSink* next)
    : plan_(plan), next_(next) {
    stamp_.assign(plan.points(), 0);
    count_.assign(plan.points(), 0);
}

void AttributionProbe::begin_trace() {
    touched_.clear();
    if (++epoch_ == 0) {  // u32 wrap: stale stamps could alias epoch 0
        std::fill(stamp_.begin(), stamp_.end(), 0u);
        epoch_ = 1;
    }
    cur_window_ = 0;
    window_end_ = plan_.window_ps();
}

void AttributionProbe::on_toggle(netlist::NetId net, sim::TimePs time,
                                 bool value) {
    if (next_ != nullptr) next_->on_toggle(net, time, value);
    const std::uint32_t probe = plan_.probe_of(net);
    if (probe == AttributionPlan::kUnwatched) return;
    if (cur_window_ >= plan_.windows()) return;
    while (time >= window_end_) {  // commit times never decrease in a trace
        window_end_ += plan_.window_ps();
        if (++cur_window_ >= plan_.windows()) return;
    }
    const std::size_t point = plan_.point_index(probe, cur_window_);
    if (stamp_[point] != epoch_) {
        stamp_[point] = epoch_;
        count_[point] = 1;
        touched_.push_back(static_cast<std::uint32_t>(point));
    } else if (count_[point] != 255) {
        ++count_[point];
    }
}

void AttributionProbe::fold_trace(bool fixed, AttributionAccumulator& acc) {
    if (fixed)
        ++acc.traces_fixed;
    else
        ++acc.traces_random;
    for (const std::uint32_t point : touched_) {
        const std::uint8_t count = count_[point];
        const double v = static_cast<double>(count);
        PointStats& p = acc.point(point);
        if (fixed) {
            p.sum_fixed += v;
            p.sumsq_fixed += v * v;
        } else {
            p.sum_random += v;
            p.sumsq_random += v * v;
        }
        p.toggles += count;
        p.glitches += count - 1u;
    }
    begin_trace();
}

// ----- batch probe --------------------------------------------------------

BatchAttributionProbe::BatchAttributionProbe(const AttributionPlan& plan,
                                             sim::BatchToggleSink* next)
    : plan_(plan), next_(next) {
    stamp_slot_.assign(plan.points(), 0);
}

void BatchAttributionProbe::begin_group(std::uint64_t fixed_mask,
                                        unsigned count,
                                        AttributionAccumulator& acc) {
    // A new fold target (or a u32-headroom limit: sumsq grows by at most
    // 64 * 255^2 per group, so ~1000 groups fit) forces a spill of the
    // staged subtotals first.
    if (acc_ != nullptr && (acc_ != &acc || groups_in_block_ >= 1000))
        spill_block();
    if (block_.empty()) block_.assign(plan_.points() * 5, 0u);
    touched_.clear();
    if (++epoch_ == 0) {
        std::fill(stamp_slot_.begin(), stamp_slot_.end(), std::uint64_t{0});
        epoch_ = 1;
    }
    cur_window_ = 0;
    window_end_ = plan_.window_ps();
    fixed_mask_ = fixed_mask;
    for (unsigned lane = 0; lane < sim::kBatchLanes; ++lane)
        class_of_[lane] = static_cast<std::uint8_t>((fixed_mask >> lane) & 1u);
    count_ = count;
    acc_ = &acc;
}

void BatchAttributionProbe::on_toggle(netlist::NetId net, sim::TimePs time,
                                      std::uint64_t values,
                                      std::uint64_t toggled) {
    if (next_ != nullptr) next_->on_toggle(net, time, values, toggled);
    const std::uint32_t probe = plan_.probe_of(net);
    if (probe == AttributionPlan::kUnwatched) return;
    if (cur_window_ >= plan_.windows()) return;
    if (time >= window_end_) {  // commit times never decrease in a group
        // The cursor leaves one or more windows behind: their counters
        // are final, so fold them while they are still cache-hot and
        // recycle their arena slots for the windows ahead.
        flush_windows();
        do {
            window_end_ += plan_.window_ps();
            if (++cur_window_ >= plan_.windows()) return;
        } while (time >= window_end_);
    }
    const std::size_t point = plan_.point_index(probe, cur_window_);
    const std::uint64_t entry = stamp_slot_[point];
    std::uint32_t slot = static_cast<std::uint32_t>(entry);
    if (static_cast<std::uint32_t>(entry >> 32) != epoch_) {
        slot = static_cast<std::uint32_t>(touched_.size());
        stamp_slot_[point] = (std::uint64_t{epoch_} << 32) | slot;
        touched_.push_back(static_cast<std::uint32_t>(point));
        if (arena_.size() < (slot + 1u) * std::size_t{sim::kBatchLanes})
            arena_.resize((slot + 1u) * std::size_t{sim::kBatchLanes});
        std::fill_n(arena_.begin() + slot * std::size_t{sim::kBatchLanes},
                    sim::kBatchLanes, std::uint8_t{0});
    }
    // SWAR deposit, 8 lane counters per step: spread the mask byte to one
    // 0/1 increment per counter byte, then suppress increments for bytes
    // already saturated at 255.  Both byte tests are exact (no borrow
    // artifacts): a byte of `v` is nonzero iff the high bit of
    // ((v & 0x7f..) + 0x7f..) | v is set.
    std::uint8_t* counts =
        arena_.data() + slot * std::size_t{sim::kBatchLanes};
    constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
    constexpr std::uint64_t kHigh = 0x8080808080808080ull;
    // Only visit the nonzero bytes of the mask (masks are sparse: schedule
    // groups split lanes by mark time, so most commits touch 1-2 bytes).
    std::uint64_t nz = ((((toggled & kLow7) + kLow7) | toggled) & kHigh);
    while (nz != 0) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(nz)) / 8u;
        nz &= nz - 1;
        const std::uint64_t mb = (toggled >> (8 * k)) & 0xFFu;
        // Byte j of `bits` holds bit j of mb (in that byte's bit j).
        const std::uint64_t bits =
            (mb * 0x0101010101010101ull) & 0x8040201008040201ull;
        const std::uint64_t spread =
            ((((bits & kLow7) + kLow7) | bits) & kHigh) >> 7;  // 0/1 per byte
        std::uint64_t x;
        std::memcpy(&x, counts + 8 * k, 8);
        const std::uint64_t t = ~x;  // byte 0 <=> counter at 255
        const std::uint64_t sat01 = (~((((t & kLow7) + kLow7) | t) & kHigh) &
                                     kHigh) >> 7;  // 0/1 per saturated byte
        x += spread & ~sat01;
        std::memcpy(counts + 8 * k, &x, 8);
    }
}

void BatchAttributionProbe::flush_windows() {
    // Every addend is a small integer (counts saturate at 255) and every
    // partial sum stays far below 2^53, so the accumulator's doubles only
    // ever hold *exact* integers: no addition ever rounds, and any
    // association of the same addends lands on the same double.  That
    // frees the fold from replaying the scalar path's per-trace FP chain
    // -- subtotal in plain integers (1-cycle dependencies instead of
    // FP-add latency) and add one exact subtotal per class, still `==`
    // the scalar fold_trace() sequence.
    if (count_ != 0 && acc_ != nullptr) {
        for (const std::uint32_t point : touched_) {
            const std::uint8_t* counts =
                arena_.data() + static_cast<std::uint32_t>(stamp_slot_[point]) *
                                    std::size_t{sim::kBatchLanes};
            // Branchless per-lane accumulation, class selected by a 0/1
            // multiply: no data-dependent branches, so the compiler turns
            // the loop into SIMD widening sums -- faster than any
            // byte-skipping walk once a net toggles in most lanes (the
            // common case for shared control and clock fanout).
            std::uint32_t sum = 0, sum_f = 0, sumsq = 0, sumsq_f = 0;
            std::uint32_t lanes = 0;
            for (unsigned lane = 0; lane < count_; ++lane) {
                const std::uint32_t c = counts[lane];
                const std::uint32_t m = class_of_[lane];
                sum += c;
                sum_f += c * m;
                sumsq += c * c;
                sumsq_f += c * c * m;
                lanes += c != 0 ? 1u : 0u;
            }
            std::uint32_t* b = block_.data() + point * std::size_t{5};
            b[0] += sum_f;
            b[1] += sumsq_f;
            b[2] += sum - sum_f;
            b[3] += sumsq - sumsq_f;
            b[4] += lanes;
        }
    }
    // Recycling the touch list restarts slot allocation at 0: the next
    // window reuses the same (cache-hot) arena rows.
    touched_.clear();
}

void BatchAttributionProbe::fold_group() {
    flush_windows();
    if (acc_ == nullptr) return;
    ++groups_in_block_;
    for (unsigned lane = 0; lane < count_; ++lane) {
        if ((fixed_mask_ >> lane) & 1u)
            ++acc_->traces_fixed;
        else
            ++acc_->traces_random;
    }
}

void BatchAttributionProbe::spill_block() {
    if (acc_ == nullptr || block_.empty()) {
        groups_in_block_ = 0;
        return;
    }
    const std::size_t points = plan_.points();
    for (std::size_t point = 0; point < points; ++point) {
        std::uint32_t* b = block_.data() + point * std::size_t{5};
        // Skip untouched points entirely, like the scalar fold (adding
        // an exact 0.0 would still be a wasted dirty cache line).
        if ((b[0] | b[1] | b[2] | b[3] | b[4]) == 0) continue;
        PointStats& p = acc_->point(point);
        p.sum_fixed += static_cast<double>(b[0]);
        p.sumsq_fixed += static_cast<double>(b[1]);
        p.sum_random += static_cast<double>(b[2]);
        p.sumsq_random += static_cast<double>(b[3]);
        const std::uint64_t toggles = std::uint64_t{b[0]} + b[2];
        p.toggles += toggles;
        p.glitches += toggles - b[4];
        b[0] = b[1] = b[2] = b[3] = b[4] = 0;
    }
    groups_in_block_ = 0;
    acc_ = nullptr;
}

// ----- analysis -----------------------------------------------------------

namespace {

struct ClassStats {
    double mean = 0.0;
    double variance = 0.0;
};

/// Mean and unbiased variance of one class over n traces (the sums cover
/// only toggling traces; the remaining n - k samples are exact zeros).
ClassStats class_stats(double sum, double sumsq, std::uint64_t n) {
    ClassStats s;
    if (n == 0) return s;
    const double dn = static_cast<double>(n);
    s.mean = sum / dn;
    if (n >= 2) s.variance = (sumsq - dn * s.mean * s.mean) / (dn - 1.0);
    if (s.variance < 0.0) s.variance = 0.0;  // FP cancellation guard
    return s;
}

/// First-order SNR: between-class variance of the means over the mean
/// within-class variance; 0.0 sentinel on degenerate inputs.
double snr_of(const ClassStats& f, std::uint64_t nf, const ClassStats& r,
              std::uint64_t nr) {
    if (nf < 2 || nr < 2) return 0.0;
    const double dnf = static_cast<double>(nf);
    const double dnr = static_cast<double>(nr);
    const double n = dnf + dnr;
    const double grand = (dnf * f.mean + dnr * r.mean) / n;
    const double between = (dnf * (f.mean - grand) * (f.mean - grand) +
                            dnr * (r.mean - grand) * (r.mean - grand)) /
                           n;
    const double within = (dnf * f.variance + dnr * r.variance) / n;
    if (!(within > 0.0)) return 0.0;
    return between / within;
}

}  // namespace

AttributionResult analyze_attribution(const netlist::Netlist& nl,
                                      const AttributionPlan& plan,
                                      const AttributionAccumulator& acc) {
    AttributionResult result;
    result.enabled = plan.enabled();
    result.traces_fixed = acc.traces_fixed;
    result.traces_random = acc.traces_random;
    result.windows = plan.windows();
    if (!plan.enabled()) return result;
    if (acc.size() != plan.points())
        throw std::invalid_argument(
            "analyze_attribution: accumulator does not match the plan");

    const std::uint64_t traces = acc.traces_fixed + acc.traces_random;
    const std::size_t windows = plan.windows();
    std::vector<std::size_t> order(plan.net_count());
    std::vector<NetAttribution> nets(plan.net_count());
    std::vector<double> abs_t(plan.points(), 0.0);

    for (std::size_t i = 0; i < plan.net_count(); ++i) {
        order[i] = i;
        const netlist::NetId id = plan.net(i);
        NetAttribution& net = nets[i];
        net.net = id;
        net.name = nl.name(id).empty() ? "n" + std::to_string(id)
                                       : std::string(nl.name(id));
        net.kind = std::string(netlist::kind_name(nl.cell(id).kind));
        net.module = nl.module_names()[nl.module_of(id)];
        for (std::size_t w = 0; w < windows; ++w) {
            const PointStats& p = acc.point(plan.point_index(i, w));
            const ClassStats f =
                class_stats(p.sum_fixed, p.sumsq_fixed, acc.traces_fixed);
            const ClassStats r =
                class_stats(p.sum_random, p.sumsq_random, acc.traces_random);
            const double t = welch_t(
                f.mean, f.variance, static_cast<double>(acc.traces_fixed),
                r.mean, r.variance, static_cast<double>(acc.traces_random));
            const double at = t < 0.0 ? -t : t;
            abs_t[i * windows + w] = at;
            if (at > net.max_abs_t) {
                net.max_abs_t = at;
                net.argmax_window = w;
                net.snr = snr_of(f, acc.traces_fixed, r, acc.traces_random);
            }
            net.toggles += p.toggles;
            net.glitches += p.glitches;
        }
        net.glitch_density =
            traces > 0
                ? static_cast<double>(net.glitches) / static_cast<double>(traces)
                : 0.0;
    }

    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (nets[a].max_abs_t != nets[b].max_abs_t)
            return nets[a].max_abs_t > nets[b].max_abs_t;
        if (nets[a].glitches != nets[b].glitches)
            return nets[a].glitches > nets[b].glitches;
        return nets[a].net < nets[b].net;
    });

    result.ranked.reserve(nets.size());
    result.abs_t.resize(plan.points());
    result.window_glitches.resize(plan.points());
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
        const std::size_t i = order[rank];
        result.ranked.push_back(std::move(nets[i]));
        for (std::size_t w = 0; w < windows; ++w) {
            result.abs_t[rank * windows + w] = abs_t[i * windows + w];
            result.window_glitches[rank * windows + w] =
                acc.point(plan.point_index(i, w)).glitches;
        }
    }
    return result;
}

// ----- reports ------------------------------------------------------------

void print_culprit_table(const AttributionResult& result, std::size_t top_k) {
    TablePrinter table({"rank", "net", "gate", "gadget role", "max|t|",
                        "window", "SNR", "glitch/trace"});
    const std::size_t rows = std::min(top_k, result.ranked.size());
    for (std::size_t rank = 0; rank < rows; ++rank) {
        const NetAttribution& net = result.ranked[rank];
        table.add_row({std::to_string(rank + 1), net.name, net.kind,
                       net.module.empty() ? "(top)" : net.module,
                       TablePrinter::num(net.max_abs_t),
                       std::to_string(net.argmax_window),
                       TablePrinter::num(net.snr, 4),
                       TablePrinter::num(net.glitch_density, 4)});
    }
    table.print();
}

std::string attribution_csv(const AttributionResult& result) {
    std::string out =
        "net,name,kind,module,max_abs_t,argmax_window,snr,toggles,glitches,"
        "glitch_density";
    for (std::size_t w = 0; w < result.windows; ++w)
        out += ",abs_t_w" + std::to_string(w);
    for (std::size_t w = 0; w < result.windows; ++w)
        out += ",glitches_w" + std::to_string(w);
    out += '\n';
    char buf[64];
    const auto num = [&buf](double v) {
        std::snprintf(buf, sizeof buf, "%.9g", v);
        return std::string(buf);
    };
    for (std::size_t rank = 0; rank < result.ranked.size(); ++rank) {
        const NetAttribution& net = result.ranked[rank];
        out += std::to_string(net.net) + ',' + net.name + ',' + net.kind + ',' +
               net.module + ',' + num(net.max_abs_t) + ',' +
               std::to_string(net.argmax_window) + ',' + num(net.snr) + ',' +
               std::to_string(net.toggles) + ',' + std::to_string(net.glitches) +
               ',' + num(net.glitch_density);
        for (std::size_t w = 0; w < result.windows; ++w)
            out += ',' + num(result.t_at(rank, w));
        for (std::size_t w = 0; w < result.windows; ++w)
            out += ',' + std::to_string(result.glitches_at(rank, w));
        out += '\n';
    }
    return out;
}

void write_attribution_csv(const std::string& path,
                           const AttributionResult& result) {
    std::ofstream file(path);
    if (!file)
        throw std::runtime_error("write_attribution_csv: cannot open " + path);
    file << attribution_csv(result);
    file.flush();
    if (!file)
        throw std::runtime_error("write_attribution_csv: write failed for " +
                                 path);
}

std::string attribution_dot(const netlist::Netlist& nl,
                            const AttributionResult& result, std::size_t top_k,
                            netlist::DotOptions options) {
    options.cell_annotations.assign(nl.size(), std::string());
    options.cell_colors.assign(nl.size(), std::string());
    const std::size_t rows = std::min(top_k, result.ranked.size());
    char buf[96];
    for (std::size_t rank = 0; rank < rows; ++rank) {
        const NetAttribution& net = result.ranked[rank];
        if (net.net >= nl.size()) continue;
        std::snprintf(buf, sizeof buf, "|t|=%.1f g=%llu", net.max_abs_t,
                      static_cast<unsigned long long>(net.glitches));
        options.cell_annotations[net.net] = buf;
        // Heat scale red (rank 0) -> yellow (last annotated rank).
        const double frac =
            rows > 1 ? static_cast<double>(rank) / static_cast<double>(rows - 1)
                     : 0.0;
        std::snprintf(buf, sizeof buf, "%.3f 0.85 1.0", 0.15 * frac);
        options.cell_colors[net.net] = buf;
    }
    return netlist::to_dot(nl, options);
}

}  // namespace glitchmask::leakage

#include "netlist/lutmap.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace glitchmask::netlist {

namespace {

/// Sorted small set of leaf nets with capped size.
using Support = std::vector<NetId>;

void merge_into(Support& dest, const Support& src) {
    Support merged;
    merged.reserve(dest.size() + src.size());
    std::set_union(dest.begin(), dest.end(), src.begin(), src.end(),
                   std::back_inserter(merged));
    dest = std::move(merged);
}

void insert_leaf(Support& dest, NetId leaf) {
    const auto it = std::lower_bound(dest.begin(), dest.end(), leaf);
    if (it == dest.end() || *it != leaf) dest.insert(it, leaf);
}

[[nodiscard]] bool absorbable(const Netlist& nl, NetId driver) {
    const Cell& cell = nl.cell(driver);
    switch (cell.kind) {
        case CellKind::Input:
        case CellKind::Const0:
        case CellKind::Const1:
        case CellKind::Dff:
        case CellKind::DelayBuf:
            return false;
        default:
            return nl.fanout(driver).size() == 1;
    }
}

}  // namespace

LutMapResult estimate_luts(const Netlist& nl, unsigned k) {
    if (!nl.frozen()) throw std::runtime_error("estimate_luts: netlist not frozen");

    LutMapResult result;
    result.ffs = nl.flops().size();

    // support[c]: leaves of the cone currently rooted at c.
    // absorbed[c]: c has been merged into its single sink's LUT.
    std::vector<Support> support(nl.size());
    std::vector<char> absorbed(nl.size(), 0);

    for (CellId id = 0; id < nl.size(); ++id) {
        const Cell& cell = nl.cell(id);
        if (is_source(cell.kind)) continue;
        if (cell.kind == CellKind::DelayBuf) {
            ++result.delay_luts;
            continue;
        }

        Support cone;
        const unsigned pins = pin_count(cell.kind);
        // First pass: the cone with every absorbable driver merged.
        for (unsigned p = 0; p < pins; ++p) {
            const NetId in = cell.in[p];
            if (absorbable(nl, in))
                merge_into(cone, support[in]);
            else
                insert_leaf(cone, in);
        }
        if (cone.size() <= k) {
            for (unsigned p = 0; p < pins; ++p) {
                const NetId in = cell.in[p];
                if (absorbable(nl, in)) absorbed[in] = 1;
            }
            support[id] = std::move(cone);
        } else {
            // Cone too wide: keep this cell as its own LUT root over its
            // direct inputs.
            Support direct;
            for (unsigned p = 0; p < pins; ++p) insert_leaf(direct, cell.in[p]);
            support[id] = std::move(direct);
        }
    }

    std::size_t logic_luts = 0;
    for (CellId id = 0; id < nl.size(); ++id) {
        const Cell& cell = nl.cell(id);
        if (is_source(cell.kind) || cell.kind == CellKind::DelayBuf) continue;
        if (!absorbed[id]) ++logic_luts;
    }
    result.luts = logic_luts + result.delay_luts;
    return result;
}

}  // namespace glitchmask::netlist

#include "netlist/builder.hpp"

#include <algorithm>

namespace glitchmask::netlist {

Bus input_bus(Netlist& nl, std::string_view name, std::size_t width) {
    Bus bus(width);
    for (std::size_t i = 0; i < width; ++i) {
        std::string bit_name(name);
        bit_name += '[';
        bit_name += std::to_string(i);
        bit_name += ']';
        bus[i] = nl.input(bit_name);
    }
    return bus;
}

Bus xor_bus(Netlist& nl, const Bus& a, const Bus& b) {
    Bus out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = nl.xor2(a[i], b[i]);
    return out;
}

NetId xor_reduce(Netlist& nl, std::span<const NetId> nets) {
    if (nets.empty()) return nl.const0();
    // Pairwise levels, each reduced in place into the front of one buffer.
    std::vector<NetId> level(nets.begin(), nets.end());
    for (std::size_t n = level.size(); n > 1; n = (n + 1) / 2) {
        for (std::size_t i = 0; i + 1 < n; i += 2)
            level[i / 2] = nl.xor2(level[i], level[i + 1]);
        if (n % 2 != 0) level[n / 2] = level[n - 1];
    }
    return level.front();
}

Bus register_bank(Netlist& nl, const Bus& data, CtrlGroup enable,
                  CtrlGroup reset, std::string_view name) {
    Bus out(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        std::string bit_name;
        if (!name.empty()) {
            bit_name = std::string(name) + '[' + std::to_string(i) + ']';
        }
        out[i] = nl.dff(data[i], enable, reset, bit_name);
    }
    return out;
}

Bus register_bank_floating(Netlist& nl, std::size_t width, CtrlGroup enable,
                           CtrlGroup reset, std::string_view name) {
    Bus out(width);
    for (std::size_t i = 0; i < width; ++i) {
        std::string bit_name;
        if (!name.empty()) {
            bit_name = std::string(name) + '[' + std::to_string(i) + ']';
        }
        out[i] = nl.dff_floating(enable, reset, bit_name);
    }
    return out;
}

DelayChain delay_units(Netlist& nl, NetId net, unsigned units,
                       unsigned luts_per_unit, std::string_view name) {
    DelayChain chain;
    chain.out = net;
    const unsigned total = units * luts_per_unit;
    chain.stages.reserve(total);
    for (unsigned i = 0; i < total; ++i) {
        std::string stage_name;
        if (!name.empty()) {
            stage_name = std::string(name) + ".d" + std::to_string(i);
        }
        chain.out = nl.delay_buf(chain.out, stage_name);
        chain.stages.push_back(chain.out);
    }
    return chain;
}

void couple_chains(Netlist& nl, const DelayChain& a, const DelayChain& b) {
    const std::size_t overlap = std::min(a.stages.size(), b.stages.size());
    for (std::size_t i = 0; i < overlap; ++i) nl.couple(a.stages[i], b.stages[i]);
}

}  // namespace glitchmask::netlist

// The lane-word seams shared by the lane engines and their observers.
//
// Both lane engines -- the bitsliced event engine (sim/batch_simulator.hpp)
// and the compiled wide-lane engine (sim/compiled_simulator.hpp) -- hand
// committed transitions to a BatchToggleSink and expose committed values
// through a BatchWordView, one 64-lane word per net and chunk.  The power
// recorders and attribution probes depend only on this header, not on
// either engine.
#pragma once

#include <cstdint>

#include "sim/delay_model.hpp"

namespace glitchmask::sim {

/// Number of traces per lane word (one per bit).
inline constexpr unsigned kBatchLanes = 64;

/// All-lanes mask.
inline constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

/// Observer for committed lane-word transitions.  `values` is the full
/// lane word after the commit; `toggled` marks the lanes that changed.
class BatchToggleSink {
public:
    virtual ~BatchToggleSink() = default;
    virtual void on_toggle(NetId net, TimePs time, std::uint64_t values,
                           std::uint64_t toggled) = 0;
};

/// Read-only lane-word view of committed net values -- the seam the
/// energy-coupling power model taps (power/batch_power.hpp).  Implemented
/// by BatchEventSimulator (its one 64-lane word) and by each 64-lane
/// chunk of the compiled wide-lane engine.
class BatchWordView {
public:
    virtual ~BatchWordView() = default;
    [[nodiscard]] virtual std::uint64_t word(NetId net) const noexcept = 0;
};

}  // namespace glitchmask::sim

#include "eval/parallel_campaign.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace glitchmask::eval {

unsigned resolve_workers(unsigned configured) {
    return configured > 0 ? configured : ThreadPool::default_worker_count();
}

void validate_campaign_config(std::size_t traces, std::size_t block_size) {
    if (traces == 0)
        throw std::invalid_argument(
            "campaign config: traces must be > 0 (a zero budget would "
            "silently produce a zero-block plan)");
    if (block_size == 0)
        throw std::invalid_argument(
            "campaign config: block_size must be > 0 (a zero block size "
            "would silently produce a zero-block plan)");
    // ShardPlan::blocks() computes traces + block_size - 1, and the last
    // block_end() at most that: both must stay representable.
    if (traces - 1 > std::numeric_limits<std::size_t>::max() - block_size)
        throw std::invalid_argument(
            "campaign config: traces + block_size overflows the block plan "
            "(traces " + std::to_string(traces) + ", block_size " +
            std::to_string(block_size) + ")");
}

}  // namespace glitchmask::eval

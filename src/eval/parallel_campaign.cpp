#include "eval/parallel_campaign.hpp"

#include <stdexcept>

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
}

}  // namespace glitchmask::eval

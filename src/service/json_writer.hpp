// The service's name for the one JSON writer (support/json.hpp).
#pragma once

#include "support/json.hpp"

namespace glitchmask::service {

using JsonWriter = json::JsonWriter;

}  // namespace glitchmask::service

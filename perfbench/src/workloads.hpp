// The benchmark's workloads and its traced per-layer suite.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Paper Sec. VII: fixed-vs-random TVLA of the masked DES FF core through
/// eval::run_des_tvla.
[[nodiscard]] Report des_tvla_workload(const Options& options);

/// The long-campaign regime: secAND2-PD through GadgetHarness::run (the
/// body of eval::run_gadget_tvla) with per-net attribution on.
[[nodiscard]] Report gadget_pd_attr_workload(const Options& options);

/// Traced runs only: every per-layer metric of the des, sim, power, eval
/// and leakage modules, each measured around calls into that layer.
void campaign_layers(const Options& options, Report& report);

/// Traced runs only: the service module's per-layer metrics (codec, round
/// trips, job overhead, cache and coalescing shares), on a fresh
/// glitchmaskd.
void service_layers(const Options& options, Report& report);

}  // namespace perfbench

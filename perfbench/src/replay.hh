/**
 * @file
 * Output check and per-layer replay of a run's seeded probe jobs.
 *
 * Every probe reply is compared byte for byte with the same seed run
 * directly through the layers a worker runs, on a reference store
 * built by the benchmark and on the shard the serving worker plays:
 * Session::sampleBatchInto (with Rng(seed)) -> AttributeGatherer::gather
 * -> gnn::forwardGathered -> gnn::inBatchLoss. With spans on, a second
 * pass times each of those calls as a child of one replay.job span,
 * and runs the forward pass's matmuls through axe::GemmEngine::matmul
 * at the same shapes and operands (axe.gemm spans), so the GEMM kernel
 * is timed on its own.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "load.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

struct ReplayResult {
    std::uint64_t probes = 0;
    /** Compared byte for byte and equal. */
    std::uint64_t matched = 0;
    /** Compared and different, or the reference itself failed. */
    std::uint64_t mismatched = 0;
    /** Brown-out/fallback-degraded replies: shape-checked only. */
    std::uint64_t degraded = 0;
    /**
     * Probes whose seeded sample differs between two shards' sessions
     * (reported; seeded output is meant to be shard-independent).
     */
    std::uint64_t cross_shard_divergent = 0;
    /** Reference graph construction (store and/or Session), seconds. */
    double graph_build_s = 0.0;

    // Timed pass (spans on) — per probe.
    std::vector<double> sample_ms;
    std::vector<double> gather_ms;
    std::vector<double> forward_ms;
    std::vector<double> gemm_ms;
    std::vector<double> remote_wait_ms;
    double job_wall_ms = 0.0;  ///< sum of replay.job durations
    double job_self_ms = 0.0;  ///< sum of replay.job self times
    std::uint64_t forward_flops = 0;
    std::uint64_t gemm_flops = 0;
    double gemm_modeled_us = 0.0; ///< modeled engine time, per probe sum
    std::uint64_t gather_rows = 0;
    std::uint64_t gather_remote_rows = 0;
    std::uint64_t gather_cache_hits = 0;
    double gather_remote_bytes = 0.0;
};

/**
 * Check every probe in @p jobs against a direct run of the layers;
 * when @p spans is enabled, also time a replay of them.
 */
ReplayResult replayProbes(const Workload &workload,
                          const lsdgnn::service::ServiceConfig &config,
                          const std::vector<JobRecord> &jobs,
                          SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH

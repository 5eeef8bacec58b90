/**
 * @file
 * Load generation against a running Service, through submit() only.
 *
 * Open-loop streams follow an arrival schedule drawn from the seed
 * before the run starts (Poisson, fixed rate); each job's latency
 * counts from its scheduled due time, so a stall that delays later
 * submissions shows in their latency, and the generator's own lag is
 * recorded. Closed-loop streams keep a fixed number of jobs
 * outstanding. A run uses at most four threads of its own: one
 * submitter per open stream, one per closed stream, and the rest wait
 * on replies so each reply's arrival is observed as it happens.
 */

#ifndef PERFBENCH_LOAD_HH
#define PERFBENCH_LOAD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "service/service.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

/** One job of a run: what was sent, when, and what came back. */
struct JobRecord {
    std::uint32_t stream = 0;
    /** Seeded probe; its reply payload is kept for the output check. */
    bool probe = false;
    std::uint64_t seed = 0;
    /** Scheduled send time (open loop) or submit time (closed loop). */
    Clock::time_point due{};
    Clock::time_point submit_start{};
    Clock::time_point submit_end{};
    /** When the benchmark saw the reply. */
    Clock::time_point done{};
    bool answered = false;
    lsdgnn::StatusCode code = lsdgnn::StatusCode::Ok;
    bool shape_ok = false;
    /** Reply fields the metrics use. */
    double queue_us = 0.0;
    double exec_us = 0.0;
    double e2e_us = 0.0;
    double sample_us = 0.0;
    double gather_us = 0.0;
    double compute_us = 0.0;
    std::uint32_t batched_with = 0;
    std::uint64_t flops = 0;
    /** Probes only. */
    std::shared_ptr<lsdgnn::service::Reply> reply;

    /** Answered with a usable payload of the right shape. */
    bool
    ok() const
    {
        return answered && lsdgnn::Status(code).hasPayload() && shape_ok;
    }

    double
    latencyMs() const
    {
        return std::chrono::duration<double, std::milli>(done - due)
            .count();
    }
};

struct LoadRun {
    std::vector<JobRecord> jobs;
    Clock::time_point start{};
    /** Last reply of the run (the measured window ends here). */
    Clock::time_point end{};
    /** Process CPU (user + sys) over the window, seconds. */
    double cpu_s = 0.0;

    double
    windowS() const
    {
        return std::chrono::duration<double>(end - start).count();
    }
};

/**
 * Offer @p workload's traffic for @p seconds and wait for every reply.
 * Job seeds and arrival times derive from @p seed; @p spans (may be
 * disabled) receives a request span and a submit child per job.
 */
LoadRun runLoad(lsdgnn::service::Service &service,
                const Workload &workload, std::uint64_t seed,
                double seconds, SpanLog &spans);

/**
 * Submit seeded jobs until every worker has answered one; false if
 * that does not happen within a few seconds.
 */
bool warmEveryWorker(lsdgnn::service::Service &service,
                     const Workload &workload, std::uint64_t seed);

/** Process CPU time (user + sys) so far, seconds. */
double processCpuS();

/** Peak resident set size so far, MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_LOAD_HH

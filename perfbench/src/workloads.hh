/**
 * @file
 * The serving benchmark's workloads: traffic, service configuration
 * and the latency limit of each, fixed here so every run of a
 * workload offers the same load to the same service.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/config.hh"
#include "service/job.hh"

namespace perfbench {

/** One traffic stream of a workload. */
struct Stream {
    lsdgnn::service::JobKind kind = lsdgnn::service::JobKind::Embed;
    lsdgnn::service::Lane lane = lsdgnn::service::Lane::Interactive;
    lsdgnn::service::TenantId tenant = 0;
    /** Open loop: Poisson arrivals at this rate (jobs/s); 0 = closed. */
    double rate_jobs_s = 0.0;
    /** Closed loop: jobs kept outstanding. */
    std::uint32_t outstanding = 0;
    std::uint32_t roots = 64;
    std::vector<std::uint32_t> fanouts = {10, 10};
    /** Every probe_every-th job is a seeded probe (output check). */
    std::uint32_t probe_every = 50;

    bool open() const { return rate_jobs_s > 0.0; }

    lsdgnn::sampling::SamplePlan
    plan() const
    {
        lsdgnn::sampling::SamplePlan p;
        p.batch_size = roots;
        p.fanouts = fanouts;
        return p;
    }
};

struct Workload {
    std::string name;
    std::string why;
    std::string dataset = "ss";
    std::uint64_t scale_divisor = 200;
    /** 0 = Software backend, else Distributed with this many shards. */
    std::uint32_t shards = 0;
    double cache_mb = 0.0;
    double loss = 0.0;
    std::uint32_t workers = 2;
    bool pipeline = true;
    std::uint32_t hidden = 256;
    std::uint32_t layers = 2;
    std::uint32_t batch_window_us = 200;
    /** Latency limit of the latency-tracked (open-loop) stream. */
    double latency_limit_ms = 0.0;
    /** streams[0] is the open-loop stream latency metrics cover. */
    std::vector<Stream> streams;

    /** Service configuration; @p seed only decorrelates sampling. */
    lsdgnn::service::ServiceConfig config(std::uint64_t seed) const;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** Lookup by name; nullptr when unknown. */
const Workload *findWorkload(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

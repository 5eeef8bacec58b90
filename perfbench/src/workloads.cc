#include "workloads.hh"

namespace perfbench {

using namespace lsdgnn;
using service::JobKind;
using service::Lane;

service::ServiceConfig
Workload::config(std::uint64_t seed) const
{
    service::ServiceConfig::Builder b;
    b.dataset(dataset, scale_divisor)
        .servers(shards != 0 ? shards : 4)
        .workers(workers)
        .pipelined(pipeline)
        .model(hidden, layers)
        .gatherFabric(0.0, 0.0)
        .batchWindow(std::chrono::microseconds(batch_window_us));
    if (shards != 0) {
        framework::DistributedConfig d;
        d.num_shards = shards;
        d.cache_mb = cache_mb;
        d.loss_probability = loss;
        b.distributed(d);
    }
    for (const Stream &s : streams)
        if (s.tenant != 0)
            b.tenant(s.tenant, service::TenantConfig{
                                   "bench" + std::to_string(s.tenant),
                                   0.0, 32.0, 1});
    // The graph, attributes and model stay fixed; the workload seed
    // only moves the workers' sampling streams (the pool adds the
    // worker id on top, so seeds are spaced past any worker count).
    b.raw().session.stream_seed_offset = seed * 1024;
    return b.build();
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> w;

        Workload embed;
        embed.name = "embed_online";
        embed.why = "Poisson EmbedJobs on the Software backend: GEMM "
                    "compute and attribute gather do the work, no "
                    "fabric and no cache";
        embed.latency_limit_ms = 80.0;
        Stream e;
        e.kind = JobKind::Embed;
        e.rate_jobs_s = 34.0;
        e.probe_every = 64;
        embed.streams = {e};
        w.push_back(embed);

        Workload sample;
        sample.name = "sample_sharded";
        sample.why = "Poisson SampleJobs on 4 shards with 1% wire loss "
                     "and a hot-vertex cache at its knee: batcher, "
                     "fabric and cache do the work";
        sample.shards = 4;
        sample.cache_mb = 16.0;
        sample.loss = 0.01;
        sample.latency_limit_ms = 10.0;
        Stream s;
        s.kind = JobKind::Sample;
        s.rate_jobs_s = 800.0;
        s.probe_every = 64;
        sample.streams = {s};
        w.push_back(sample);

        Workload train;
        train.name = "train_mixed";
        train.why = "Batch-lane TrainStepJobs, 4 outstanding, beside "
                    "Poisson Interactive EmbedJobs on 4 shards: QoS "
                    "lanes share gather and compute";
        train.shards = 4;
        train.cache_mb = 16.0;
        train.latency_limit_ms = 150.0;
        Stream ti;
        ti.kind = JobKind::Embed;
        ti.lane = Lane::Interactive;
        ti.tenant = 1;
        ti.rate_jobs_s = 40.0;
        ti.probe_every = 64;
        Stream tb;
        tb.kind = JobKind::TrainStep;
        tb.lane = Lane::Batch;
        tb.tenant = 2;
        tb.outstanding = 4;
        tb.probe_every = 32;
        train.streams = {ti, tb};
        w.push_back(train);
        return w;
    }();
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

} // namespace perfbench

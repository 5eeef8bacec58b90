#include "replay.hh"

#include <cstring>
#include <memory>
#include <optional>

#include "common/rng.hh"
#include "framework/distributed.hh"
#include "framework/gather.hh"
#include "framework/session.hh"
#include "gnn/minibatch_forward.hh"
#include "graph/datasets.hh"
#include "service/pipeline.hh"

namespace perfbench {

using namespace lsdgnn;
using service::JobKind;

namespace {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

bool
sameSample(const sampling::SampleResult &a, const sampling::SampleResult &b)
{
    return a.roots == b.roots && a.frontier == b.frontier &&
           a.parent == b.parent;
}

bool
sameMatrix(const gnn::Matrix &a, const gnn::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

/**
 * The layers the workers run, on a store the benchmark owns: one
 * Session and gatherer per shard a worker plays (worker i plays shard
 * i mod shards, like the service's pool), and one compute runtime.
 */
struct Reference {
    std::vector<std::unique_ptr<framework::Session>> sessions;
    std::vector<framework::AttributeGatherer> gatherers;
    std::optional<service::ComputeRuntime> compute;

    std::size_t
    forWorker(std::uint32_t worker) const
    {
        return worker % sessions.size();
    }
};

/**
 * Run the forward pass's matmuls again (per layer and level: self x
 * W_self and aggregate x W_neigh) through the GEMM engine with the
 * pass's own operands, one axe.gemm span each.
 */
void
gemmProbe(const service::ComputeRuntime &rt,
          const sampling::SampleResult &batch,
          const framework::GatheredFeatures &feats, SpanLog &spans,
          std::uint64_t parent, std::uint64_t job, ReplayResult &out)
{
    const gnn::GraphSageModel &model = rt.model();
    const std::size_t depth = model.layers();
    std::vector<gnn::Matrix> h;
    for (std::size_t k = 0; k < depth; ++k) {
        const gnn::SageLayer &layer = model.layerParams()[k];
        std::vector<gnn::Matrix> next;
        for (std::size_t lvl = 0; lvl < depth - k; ++lvl) {
            const gnn::Matrix &self = k == 0 ? feats.levels[lvl] : h[lvl];
            const gnn::Matrix &kids =
                k == 0 ? feats.levels[lvl + 1] : h[lvl + 1];
            const gnn::Matrix agg = gnn::aggregateNeighbors(
                self.rows(), kids, batch.parent[lvl], model.aggregator());
            const auto m = static_cast<std::uint32_t>(self.rows());
            const auto kd = static_cast<std::uint32_t>(layer.inDim());
            const auto n = static_cast<std::uint32_t>(layer.outDim());
            gnn::Matrix out_self(m, n), out_neigh(m, n);
            const auto t0 = Clock::now();
            const axe::ComputeResult rs = rt.gemm().matmul(
                self.data(), layer.w_self.data(), out_self.data(), m, kd,
                n);
            const auto t1 = Clock::now();
            const axe::ComputeResult rn = rt.gemm().matmul(
                agg.data(), layer.w_neigh.data(), out_neigh.data(), m, kd,
                n);
            const auto t2 = Clock::now();
            const std::string shape = "\"m\":" + std::to_string(m) +
                                      ",\"k\":" + std::to_string(kd) +
                                      ",\"n\":" + std::to_string(n);
            spans.add("axe.gemm", t0, t1, parent, job, shape);
            spans.add("axe.gemm", t1, t2, parent, job, shape);
            out.gemm_flops += 2 * gnn::matmulFlops(m, n, kd);
            out.gemm_modeled_us +=
                static_cast<double>(rs.time + rn.time) /
                static_cast<double>(tick_per_us);
            for (std::size_t i = 0; i < out_self.data().size(); ++i)
                out_self.data()[i] += out_neigh.data()[i];
            gnn::addBias(out_self, layer.bias);
            gnn::relu(out_self);
            next.push_back(std::move(out_self));
        }
        h = std::move(next);
    }
}

} // namespace

ReplayResult
replayProbes(const Workload &w, const service::ServiceConfig &config,
             const std::vector<JobRecord> &jobs, SpanLog &spans)
{
    ReplayResult res;
    std::vector<const JobRecord *> probes;
    for (const JobRecord &rec : jobs)
        if (rec.probe && rec.ok())
            probes.push_back(&rec);
    for (const JobRecord &rec : jobs)
        res.probes += rec.probe ? 1 : 0;

    // Reference store: the service's session template, lossless (a
    // fallback-sampled reference could not match anything).
    framework::SessionConfig scfg = config.session;
    scfg.distributed.loss_probability = 0.0;
    scfg.distributed.store.reset();
    const bool sharded = scfg.backend == framework::Backend::Distributed;
    const std::uint32_t n_refs =
        sharded ? std::min(config.num_workers, w.shards) : 1;
    Reference ref;
    for (std::uint32_t shard = 0; shard < n_refs; ++shard) {
        const auto b0 = Clock::now();
        scfg.distributed.shard = shard;
        if (sharded && !scfg.distributed.store)
            scfg.distributed.store =
                framework::DistributedStore::create(scfg);
        ref.sessions.push_back(std::make_unique<framework::Session>(scfg));
        if (shard == 0)
            res.graph_build_s =
                std::chrono::duration<double>(Clock::now() - b0).count();
        const framework::Session &session = *ref.sessions.back();
        if (const auto &store = session.distributedStore())
            ref.gatherers.emplace_back(store->attrs(), &store->partitioner(),
                                       store->cache(shard), shard);
        else
            ref.gatherers.emplace_back(session.attributeStore(),
                                       &session.nodePartitioner(), nullptr,
                                       0);
    }
    ref.compute.emplace(config.pipeline,
                        graph::datasetByName(scfg.dataset).attr_len);

    const auto sampleOn = [&](std::size_t r, const JobRecord &rec,
                              sampling::SampleResult &out,
                              framework::SampleTelemetry *tel) {
        Rng rng(rec.seed);
        framework::SampleOptions opts;
        opts.rng = &rng;
        opts.telemetry = tel;
        return ref.sessions[r]->sampleBatchInto(
            w.streams[rec.stream].plan(), out, opts);
    };

    // Pass 0 checks every probe against the shard that served it;
    // pass 1 (spans on) times the replay with caches warm.
    const int passes = spans.enabled() ? 2 : 1;
    for (int pass = 0; pass < passes; ++pass) {
        const bool timed = pass == 1;
        std::uint64_t job = 0;
        for (const JobRecord *rec : probes) {
            ++job;
            const Stream &s = w.streams[rec->stream];
            const service::Reply &reply = *rec->reply;
            const std::size_t r = ref.forWorker(reply.worker);
            // Degraded replies hold fallback-sampled reads (or a
            // narrowed width); they are shape-checked only.
            const bool compare =
                !timed && reply.status.code() == StatusCode::Ok;
            if (!timed && !compare)
                ++res.degraded;

            const auto j0 = Clock::now();
            const std::uint64_t root =
                timed ? spans.open("replay.job", j0, 0, job) : 0;
            framework::SampleTelemetry stel;
            sampling::SampleResult batch;
            const Status st = sampleOn(r, *rec, batch, &stel);
            const auto s1 = Clock::now();
            bool ok = st.code() == StatusCode::Ok;
            if (timed) {
                spans.add("framework.sample", j0, s1, root, job);
                res.sample_ms.push_back(msBetween(j0, s1));
                res.remote_wait_ms.push_back(stel.remote_us / 1000.0);
            }
            if (!timed) {
                // Seeded output should not depend on the shard that
                // runs it; count probes where it does.
                for (std::size_t o = 0; o < ref.sessions.size(); ++o) {
                    sampling::SampleResult other;
                    if (o != r && sampleOn(o, *rec, other, nullptr).ok() &&
                        ok && !sameSample(batch, other)) {
                        ++res.cross_shard_divergent;
                        break;
                    }
                }
            }

            if (s.kind == JobKind::Sample) {
                if (compare)
                    ok = ok && sameSample(batch, reply.batch);
                if (timed)
                    spans.close(root, Clock::now());
            } else {
                framework::GatheredFeatures feats;
                framework::GatherTelemetry gtel;
                ref.gatherers[r].gather(batch, feats, &gtel);
                const auto g1 = Clock::now();
                gnn::ForwardTelemetry ftel;
                const gnn::Matrix emb = gnn::forwardGathered(
                    ref.compute->model(), batch, feats.levels,
                    ref.compute->gemm(), 1.0, &ftel);
                const auto f1 = Clock::now();
                double loss = 0.0;
                if (s.kind == JobKind::TrainStep)
                    loss = gnn::inBatchLoss(emb);
                const auto l1 = Clock::now();
                if (compare)
                    ok = ok && sameMatrix(emb, reply.embeddings) &&
                         std::memcmp(&loss, &reply.loss, sizeof loss) == 0;
                if (timed) {
                    spans.add("framework.gather", s1, g1, root, job);
                    spans.add("gnn.forward", g1, f1, root, job);
                    if (s.kind == JobKind::TrainStep)
                        spans.add("gnn.loss", f1, l1, root, job);
                    spans.close(root, l1);
                    res.gather_ms.push_back(msBetween(s1, g1));
                    res.forward_ms.push_back(msBetween(g1, f1));
                    res.forward_flops += ftel.flops;
                    res.gather_rows += gtel.rows;
                    res.gather_remote_rows += gtel.remote_rows;
                    res.gather_cache_hits += gtel.cache_hits;
                    // Computed, not measured: residual remote rows at
                    // the store's row size.
                    if (gtel.rows != 0)
                        res.gather_remote_bytes +=
                            static_cast<double>(gtel.bytes) /
                            static_cast<double>(gtel.rows) *
                            static_cast<double>(gtel.remote_rows -
                                                gtel.cache_hits);
                    const auto p0 = Clock::now();
                    const std::uint64_t probe =
                        spans.open("axe.gemm.probe", p0, 0, job);
                    gemmProbe(*ref.compute, batch, feats, spans, probe, job,
                              res);
                    spans.close(probe, Clock::now());
                }
            }
            if (compare)
                (ok ? res.matched : res.mismatched) += 1;
        }
    }

    if (spans.enabled()) {
        const std::vector<Span> all = spans.spans();
        const std::vector<double> self = selfUs(all);
        std::vector<double> gemm_per_job(probes.size() + 1, 0.0);
        bool any_gemm = false;
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (all[i].name == "replay.job") {
                res.job_wall_ms += all[i].durationUs() / 1000.0;
                res.job_self_ms += self[i] / 1000.0;
            } else if (all[i].name == "axe.gemm" &&
                       all[i].job < gemm_per_job.size()) {
                gemm_per_job[all[i].job] += self[i] / 1000.0;
                any_gemm = true;
            }
        }
        if (any_gemm)
            res.gemm_ms.assign(gemm_per_job.begin() + 1, gemm_per_job.end());
    }
    return res;
}

} // namespace perfbench

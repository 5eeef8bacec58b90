/**
 * @file
 * perfbench_serving: the serving benchmark's main program.
 *
 *   perfbench_serving --workload <name> --seed <n> --seconds <s>
 *                     --trace <0|1> [--out-dir <dir>]
 *                     [--git-sha <sha>] [--source-digest <hex>]
 *
 * Builds the workload's Service several times (set-up time is the
 * median, from construction until every worker has answered a job),
 * warms it, then offers the workload's traffic for the measured
 * window through Service::submit only. Every seeded probe reply is
 * checked byte for byte against a direct run of the layers, every
 * other reply for shape.
 *
 * --trace 0 measures the end-to-end metrics. --trace 1 splits the
 * window into an untraced and a traced half (their CPU-per-job
 * difference is the tracing overhead), reads the layer counters around the
 * traced half, and times a replay of the probes layer by layer.
 *
 * Prints every metric by name and unit, writes a self-describing
 * result document (and, traced, the spans) under --out-dir, and ends
 * stdout with one JSON line:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 */

#include <cpuid.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "common/stat_registry.hh"
#include "load.hh"
#include "replay.hh"
#include "service/service.hh"
#include "summary.hh"
#include "workloads.hh"

using namespace perfbench;
using lsdgnn::Status;
using lsdgnn::StatusCode;
namespace service = lsdgnn::service;
namespace stats = lsdgnn::stats;

namespace {

/** Services built per run; setup_s is their median. */
constexpr int kSetups = 5;
/** Unmeasured load after set-up, so caches fill before the window. */
constexpr double kWarmS = 1.0;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_out";
    std::string git_sha = "unknown";
    std::string source_digest = "unknown";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v != "0";
        else if (k == "--out-dir")
            a.out_dir = v;
        else if (k == "--git-sha")
            a.git_sha = v;
        else if (k == "--source-digest")
            a.source_digest = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

std::string
cpuModel()
{
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char *>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

/** mof/cache counters summed over every live shard group. */
struct Counters {
    double packages = 0, hedges = 0, pack_sum = 0, pack_n = 0, retx = 0;
    double local = 0, remote = 0, cached = 0;

    /** Read on the main thread while the workers are idle. */
    static Counters
    read()
    {
        Counters c;
        for (const stats::StatGroup *g :
             stats::StatRegistry::instance().groups()) {
            if (g->name().rfind("mof.remote.shard", 0) != 0)
                continue;
            if (g->hasCounter("packages")) { // shard -> peer channel
                c.packages += g->counter("packages").value();
                c.hedges += g->counter("hedges").value();
                c.pack_sum += g->average("pack_fill").sum();
                c.pack_n += g->average("pack_fill").samples();
            } else if (g->hasCounter("retransmissions")) { // ARQ wire
                c.retx += g->counter("retransmissions").value();
            } else if (g->hasCounter("remote")) { // shard backend
                c.local += g->counter("local").value();
                c.remote += g->counter("remote").value();
                c.cached += g->counter("cached").value() +
                            g->counter("attr_cached").value();
            }
        }
        return c;
    }

    Counters
    operator-(const Counters &o) const
    {
        Counters d;
        d.packages = packages - o.packages;
        d.hedges = hedges - o.hedges;
        d.pack_sum = pack_sum - o.pack_sum;
        d.pack_n = pack_n - o.pack_n;
        d.retx = retx - o.retx;
        d.local = local - o.local;
        d.remote = remote - o.remote;
        d.cached = cached - o.cached;
        return d;
    }
};

/** End-to-end view of one load window. */
struct EndToEnd {
    std::uint64_t offered = 0;   ///< jobs sent, all streams
    std::uint64_t completed = 0; ///< with a usable, well-shaped payload
    std::uint64_t degraded = 0;
    std::uint64_t bad_shape = 0; ///< answered with a payload, wrong shape
    std::uint64_t latency_n = 0; ///< latency samples (stream 0)
    std::uint64_t tail_n = 0;    ///< samples above p99
    double p50_ms = 0, p99_ms = 0, slo_attain = 0, goodput = 0;
    double cpu_ms_per_job = 0, gen_lag_p99_ms = 0;
};

EndToEnd
endToEnd(const LoadRun &run, const Workload &w)
{
    EndToEnd e;
    std::vector<double> lat, lag;
    std::uint64_t open_offered = 0, in_slo = 0;
    for (const JobRecord &j : run.jobs) {
        ++e.offered;
        if (j.ok())
            ++e.completed;
        else if (j.answered && Status(j.code).hasPayload())
            ++e.bad_shape;
        if (j.code == StatusCode::Degraded)
            ++e.degraded;
        if (w.streams[j.stream].open())
            lag.push_back(
                std::chrono::duration<double, std::milli>(j.submit_start -
                                                          j.due)
                    .count());
        if (j.stream != 0)
            continue;
        ++open_offered;
        if (!j.ok())
            continue;
        lat.push_back(j.latencyMs());
        if (j.latencyMs() <= w.latency_limit_ms)
            ++in_slo;
    }
    e.latency_n = lat.size();
    e.p50_ms = median(lat);
    e.p99_ms = quantile(lat, 0.99);
    e.tail_n = countAbove(lat, e.p99_ms);
    e.slo_attain = ratio(static_cast<double>(in_slo),
                         static_cast<double>(open_offered));
    e.goodput = ratio(static_cast<double>(e.completed), run.windowS());
    e.cpu_ms_per_job =
        ratio(run.cpu_s * 1000.0, static_cast<double>(e.completed));
    e.gen_lag_p99_ms = quantile(lag, 0.99);
    return e;
}

/** One named metric. */
struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
writeMetrics(Json &j, const char *key, const std::vector<Metric> &ms)
{
    j.beginObject(key);
    for (const Metric &m : ms)
        j.beginObject(m.name).kv("value", m.value).kv("unit", m.unit).end();
    j.end();
}

/** Per-layer metrics of the traced half and the replay. */
std::vector<Metric>
layerMetrics(const Workload &w, const LoadRun &run, const EndToEnd &e,
             double p99_ms, const Counters &c, const service::StageBusy &busy,
             const ReplayResult &rp, double trace_overhead_pct)
{
    std::vector<double> submit_us, queue_ms, riders, overhead_ms,
        sample_ms, gather_ms, compute_ms;
    double gap_us = 0.0, obs_us = 0.0;
    for (const JobRecord &j : run.jobs) {
        if (j.stream != 0 || !j.ok())
            continue;
        const auto us = [](Clock::time_point a, Clock::time_point b) {
            return std::chrono::duration<double, std::micro>(b - a).count();
        };
        submit_us.push_back(us(j.submit_start, j.submit_end));
        queue_ms.push_back(j.queue_us / 1000.0);
        riders.push_back(j.batched_with);
        overhead_ms.push_back((j.e2e_us - j.queue_us - j.exec_us) / 1000.0);
        sample_ms.push_back(j.sample_us / 1000.0);
        gather_ms.push_back(j.gather_us / 1000.0);
        compute_ms.push_back(j.compute_us / 1000.0);
        const double obs = us(j.submit_start, j.done);
        obs_us += obs;
        gap_us += obs - j.queue_us - j.sample_us - j.gather_us -
                  j.compute_us;
    }
    const double window_us = run.windowS() * 1e6 * w.workers;
    const double jobs = static_cast<double>(e.completed);
    const double reads = c.local + c.remote + c.cached;
    const double compute_probes = static_cast<double>(rp.gather_ms.size());
    double fwd_ms = 0.0, gemm_ms = 0.0;
    for (const double x : rp.forward_ms)
        fwd_ms += x;
    for (const double x : rp.gemm_ms)
        gemm_ms += x;
    return {
        {"e2e.p50_ms", e.p50_ms, "ms"},
        {"e2e.p99_ms", p99_ms, "ms"},
        {"service.submit_us.p50", median(submit_us), "us"},
        {"service.queue_ms.p50", median(queue_ms), "ms"},
        {"service.queue_ms.p99", quantile(queue_ms, 0.99), "ms"},
        {"service.riders.mean", mean(riders), "jobs"},
        {"service.overhead_ms.p50", median(overhead_ms), "ms"},
        {"service.busy.sample", ratio(busy.sample_us, window_us), "fraction"},
        {"service.busy.gather", ratio(busy.gather_us, window_us), "fraction"},
        {"service.busy.compute", ratio(busy.compute_us, window_us),
         "fraction"},
        {"service.degraded_frac",
         ratio(static_cast<double>(e.degraded), static_cast<double>(e.offered)),
         "fraction"},
        {"framework.sample_ms.p50", median(sample_ms), "ms"},
        {"framework.sample.self_ms", median(rp.sample_ms), "ms"},
        {"framework.remote_wait_ms", median(rp.remote_wait_ms), "ms"},
        {"mof.pack_fill", ratio(c.pack_sum, c.pack_n), "reads/pkg"},
        {"mof.packages_per_job", ratio(c.packages, jobs), "pkg/job"},
        {"mof.remote_frac", ratio(c.remote, reads), "fraction"},
        {"mof.retx_per_job", ratio(c.retx, jobs), "pkg/job"},
        {"mof.hedges_per_job", ratio(c.hedges, jobs), "pkg/job"},
        {"cache.hit_rate", ratio(c.cached, c.cached + c.remote), "fraction"},
        {"cache.gather_hit_rate",
         ratio(static_cast<double>(rp.gather_cache_hits),
               static_cast<double>(rp.gather_remote_rows)),
         "fraction"},
        {"gather.ms.p50", median(gather_ms), "ms"},
        {"gather.self_ms", median(rp.gather_ms), "ms"},
        {"gather.rows_per_job",
         ratio(static_cast<double>(rp.gather_rows), compute_probes), "rows"},
        {"gather.remote_bytes_per_job",
         ratio(rp.gather_remote_bytes, compute_probes), "B"},
        {"gnn.compute_ms.p50", median(compute_ms), "ms"},
        {"gnn.forward.self_ms", median(rp.forward_ms), "ms"},
        {"gnn.forward_gflops",
         ratio(static_cast<double>(rp.forward_flops), fwd_ms * 1e6),
         "GFLOP/s"},
        {"axe.gemm.self_ms", median(rp.gemm_ms), "ms"},
        {"axe.gemm_gflops",
         ratio(static_cast<double>(rp.gemm_flops), gemm_ms * 1e6), "GFLOP/s"},
        {"axe.gemm_modeled_us", ratio(rp.gemm_modeled_us, compute_probes),
         "us"},
        {"graph.build_s", rp.graph_build_s, "s"},
        {"bench.gen_lag_p99_ms", e.gen_lag_p99_ms, "ms"},
        {"bench.trace_overhead_pct", trace_overhead_pct, "%"},
        {"bench.layer_gap_pct", 100.0 * ratio(gap_us, obs_us), "%"},
        {"bench.replay_gap_pct", 100.0 * ratio(rp.job_self_ms, rp.job_wall_ms),
         "%"},
        {"bench.failed_frac",
         ratio(static_cast<double>(e.offered - e.completed),
               static_cast<double>(e.offered)),
         "fraction"},
    };
}

void
writeWorkload(Json &j, const Workload &w)
{
    j.beginObject("workload")
        .kv("name", w.name)
        .kv("dataset", w.dataset)
        .kv("scale_divisor", w.scale_divisor)
        .kv("backend", w.shards != 0 ? "distributed" : "software")
        .kv("shards", w.shards)
        .kv("cache_mb", w.cache_mb)
        .kv("loss", w.loss)
        .kv("workers", w.workers)
        .kv("pipeline", w.pipeline)
        .kv("hidden", w.hidden)
        .kv("layers", w.layers)
        .kv("batch_window_us", w.batch_window_us)
        .kv("latency_limit_ms", w.latency_limit_ms);
    j.beginArray("streams");
    for (const Stream &s : w.streams) {
        std::string plan = std::to_string(s.roots) + "x{";
        for (std::size_t h = 0; h < s.fanouts.size(); ++h) {
            if (h != 0)
                plan += ",";
            plan += std::to_string(s.fanouts[h]);
        }
        plan += "}";
        j.beginObject()
            .kv("kind", toString(s.kind))
            .kv("lane", toString(s.lane))
            .kv("tenant", s.tenant)
            .kv("loop", s.open() ? "open" : "closed")
            .kv("rate_jobs_s", s.rate_jobs_s)
            .kv("outstanding", s.outstanding)
            .kv("plan", plan)
            .kv("probe_every", s.probe_every)
            .end();
    }
    j.end().end();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench_serving --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
        return 2;
    }
    const Workload *wp = findWorkload(args.workload);
    if (wp == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    const Workload &w = *wp;
    const service::ServiceConfig cfg = w.config(args.seed);

    // Set-up, repeated: construction until every worker has answered.
    std::vector<double> setup_s;
    std::unique_ptr<service::Service> svc;
    for (int i = 0; i < kSetups; ++i) {
        if (svc) {
            svc->shutdown();
            svc.reset();
        }
        const auto t0 = Clock::now();
        svc = std::make_unique<service::Service>(cfg);
        if (!warmEveryWorker(*svc, w, args.seed + i)) {
            std::fprintf(stderr, "warm-up failed: a worker did not answer "
                                 "a well-formed reply\n");
            return 1;
        }
        setup_s.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
    }

    SpanLog off(false);
    runLoad(*svc, w, args.seed ^ 0x5eed, kWarmS, off);

    // Measured window(s). Counters and stage busy time are read on
    // this thread only, between drained windows, before shutdown().
    LoadRun untraced, traced;
    SpanLog request_spans(args.trace);
    Counters counters;
    service::StageBusy busy;
    if (!args.trace) {
        untraced = runLoad(*svc, w, args.seed, args.seconds, off);
    } else {
        untraced = runLoad(*svc, w, args.seed, args.seconds / 2, off);
        const Counters c0 = Counters::read();
        const service::StageBusy b0 = svc->stageBusy();
        traced = runLoad(*svc, w, args.seed + 0x7ace, args.seconds / 2,
                         request_spans);
        counters = Counters::read() - c0;
        busy = svc->stageBusy();
        busy.sample_us -= b0.sample_us;
        busy.gather_us -= b0.gather_us;
        busy.compute_us -= b0.compute_us;
    }
    const double peak_rss_mb = peakRssMb();
    svc->shutdown();
    svc.reset();

    // Output check over every probe of the measured window(s), plus
    // the timed per-layer replay when traced.
    std::vector<JobRecord> all = untraced.jobs;
    all.insert(all.end(), traced.jobs.begin(), traced.jobs.end());
    SpanLog replay_spans(args.trace);
    const ReplayResult rp = replayProbes(w, cfg, all, replay_spans);

    const EndToEnd e = endToEnd(untraced, w);
    const EndToEnd et = args.trace ? endToEnd(traced, w) : EndToEnd{};
    std::uint64_t attempted = e.offered + et.offered;
    std::uint64_t completed = e.completed + et.completed;
    const std::uint64_t bad_shape = e.bad_shape + et.bad_shape;
    // A mismatching probe counts as a failed job too.
    completed -= std::min<std::uint64_t>(completed, rp.mismatched);
    const std::uint64_t failed = attempted - completed;
    const bool correct =
        rp.mismatched == 0 && bad_shape == 0;

    const std::vector<Metric> e2e = {
        {"p50_ms", e.p50_ms, "ms"},
        {"p99_ms", e.p99_ms, "ms"},
        {"slo_attain", e.slo_attain, "fraction"},
        {"goodput_jobs_s", e.goodput, "jobs/s"},
        {"cpu_ms_per_job", e.cpu_ms_per_job, "ms"},
        {"failed_frac",
         ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "fraction"},
        {"degraded_frac",
         ratio(static_cast<double>(e.degraded + et.degraded),
               static_cast<double>(attempted)),
         "fraction"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    std::vector<Metric> layers;
    if (args.trace) {
        // p99 over both halves: one half alone is too short to keep
        // ten samples above its 99th percentile.
        LoadRun both;
        both.jobs = all;
        layers = layerMetrics(
            w, traced, et, endToEnd(both, w).p99_ms, counters, busy, rp,
            100.0 * ratio(et.cpu_ms_per_job - e.cpu_ms_per_job,
                          e.cpu_ms_per_job));
    }

    std::printf("workload %s seed %llu: %llu jobs offered, %llu failed, "
                "%llu probes (%llu matched, %llu mismatched, %llu "
                "degraded, %llu cross-shard divergent); p99 over %llu samples "
                "with %llu above it\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(rp.probes),
                static_cast<unsigned long long>(rp.matched),
                static_cast<unsigned long long>(rp.mismatched),
                static_cast<unsigned long long>(rp.degraded),
                static_cast<unsigned long long>(rp.cross_shard_divergent),
                static_cast<unsigned long long>(e.latency_n),
                static_cast<unsigned long long>(e.tail_n));
    printMetrics(args.trace ? "end-to-end (untraced half)" : "end-to-end",
                 e2e);
    if (args.trace)
        printMetrics("per-layer (traced half + replay)", layers);

    // Self-describing result document.
    std::filesystem::create_directories(args.out_dir);
    const std::string stem = args.out_dir + "/" + w.name + ".seed" +
                             std::to_string(args.seed) + ".trace" +
                             (args.trace ? "1" : "0");
    {
        Json j;
        j.beginObject()
            .kv("benchmark", "perfbench_serving")
            .kv("seed", args.seed)
            .kv("seconds", args.seconds)
            .kv("trace", args.trace);
        j.beginObject("host")
            .kv("nproc",
                static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
            .kv("cpu_model", cpuModel())
            .end();
        j.beginObject("build")
            .kv("type", PERFBENCH_BUILD_TYPE)
            .kv("git_sha", args.git_sha)
            .kv("source_digest", args.source_digest)
            .end();
        writeWorkload(j, w);
        j.beginArray("setup_s");
        for (const double s : setup_s)
            j.value(s);
        j.end();
        j.beginObject("check")
            .kv("correct", correct)
            .kv("attempted", attempted)
            .kv("failed", failed)
            .kv("bad_shape", bad_shape)
            .kv("probes", rp.probes)
            .kv("matched", rp.matched)
            .kv("mismatched", rp.mismatched)
            .kv("degraded", rp.degraded)
            .kv("cross_shard_divergent", rp.cross_shard_divergent)
            .kv("cross_shard_divergent", rp.cross_shard_divergent)
            .kv("latency_samples", e.latency_n)
            .kv("samples_above_p99", e.tail_n)
            .end();
        writeMetrics(j, "end_to_end", e2e);
        if (args.trace)
            writeMetrics(j, "per_layer", layers);
        j.end();
        std::ofstream(stem + ".json") << j.str() << "\n";
    }
    if (args.trace) {
        // Spans: request/submit spans of the traced half, then the
        // replay's layer spans. Times are microseconds from the first.
        std::vector<Span> spans = request_spans.spans();
        const std::vector<Span> rs = replay_spans.spans();
        Clock::time_point t0 = Clock::time_point::max();
        for (const Span &s : spans)
            t0 = std::min(t0, s.start);
        for (const Span &s : rs)
            t0 = std::min(t0, s.start);
        std::ofstream out(stem + ".spans.json");
        out << "{\"spans\":[";
        bool first = true;
        const auto emit = [&](const std::vector<Span> &v, const char *src) {
            for (const Span &s : v) {
                const auto us = [&](Clock::time_point t) {
                    return std::chrono::duration<double, std::micro>(t - t0)
                        .count();
                };
                out << (first ? "" : ",") << "\n{\"source\":\"" << src
                    << "\",\"name\":\"" << s.name << "\",\"id\":" << s.id
                    << ",\"parent\":" << s.parent << ",\"job\":" << s.job
                    << ",\"start_us\":" << us(s.start)
                    << ",\"end_us\":" << us(s.end);
                if (!s.attrs.empty())
                    out << "," << s.attrs;
                out << "}";
                first = false;
            }
        };
        emit(spans, "load");
        emit(rs, "replay");
        out << "\n]}\n";
    }

    // The contract line: last line of stdout.
    Json j;
    j.beginObject()
        .kv("correct", correct)
        .kv("attempted", attempted)
        .kv("failed", failed);
    // p50_ms and p99_ms are printed and kept in the result document
    // but carry no bound: on a host with CPU steal their run-to-run
    // spread is as wide as the widest bound a regression check can
    // use. slo_attain gates latency; traced runs report both
    // percentiles as e2e.p50_ms and e2e.p99_ms.
    static const char *const kHeadline[] = {
        "slo_attain", "goodput_jobs_s", "cpu_ms_per_job", "setup_s",
        "peak_rss_mb"};
    std::vector<Metric> chosen;
    if (args.trace) {
        chosen = layers;
    } else {
        for (const char *name : kHeadline)
            for (const Metric &m : e2e)
                if (m.name == name)
                    chosen.push_back(m);
    }
    writeMetrics(j, "metrics", chosen);
    j.end();
    std::cout << std::flush;
    std::printf("%s\n", j.str().c_str());
    return 0;
}

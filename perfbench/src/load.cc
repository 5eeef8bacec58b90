#include "load.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "common/rng.hh"

namespace perfbench {

using namespace lsdgnn;
using service::Job;
using service::JobKind;
using service::Reply;

namespace {

/** Threads one run may use for submitting and waiting. */
constexpr std::size_t kThreads = 4;

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e5full;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) | 1; // never 0: 0 means "unseeded"
}

/** Payload shape every reply of @p stream must have. */
bool
shapeOk(const Reply &r, const Stream &stream, std::uint32_t hidden)
{
    if (!r.status.hasPayload())
        return false;
    if (r.kind != stream.kind)
        return false;
    if (stream.kind == JobKind::Sample) {
        const auto &b = r.batch;
        if (b.roots.size() != stream.roots ||
            b.frontier.size() != stream.fanouts.size() ||
            b.parent.size() != b.frontier.size())
            return false;
        std::size_t prev = b.roots.size();
        for (std::size_t h = 0; h < b.frontier.size(); ++h) {
            if (b.parent[h].size() != b.frontier[h].size() ||
                b.frontier[h].size() > prev * stream.fanouts[h])
                return false;
            for (const std::uint32_t p : b.parent[h])
                if (p >= prev)
                    return false;
            prev = b.frontier[h].size();
        }
        return true;
    }
    const auto &e = r.embeddings;
    // Brown-out narrows the width (status Degraded); never widens it.
    if (e.rows() != stream.roots || e.cols() == 0 || e.cols() > hidden ||
        (r.status.code() == StatusCode::Ok && e.cols() != hidden))
        return false;
    for (const float x : e.data())
        if (!std::isfinite(x))
            return false;
    return stream.kind != JobKind::TrainStep || std::isfinite(r.loss);
}

Job
makeJob(const Stream &s, std::uint64_t seed)
{
    service::SubmitOptions o;
    o.lane = s.lane;
    o.tenant = s.tenant;
    o.seed = seed;
    return Job::of(s.kind, s.plan(), o);
}

/** Fill @p rec from a reply, observed at @p done. */
void
record(JobRecord &rec, Reply &&r, Clock::time_point done,
       const Stream &stream, std::uint32_t hidden, SpanLog &spans,
       std::uint64_t job_id)
{
    rec.done = done;
    rec.answered = true;
    rec.code = r.status.code();
    rec.shape_ok = shapeOk(r, stream, hidden);
    rec.queue_us = r.queue_us;
    rec.exec_us = r.exec_us;
    rec.e2e_us = r.e2e_us;
    rec.sample_us = r.sample_us;
    rec.gather_us = r.gather_us;
    rec.compute_us = r.compute_us;
    rec.batched_with = r.batched_with;
    rec.flops = r.flops;
    if (spans.enabled()) {
        char attrs[256];
        std::snprintf(attrs, sizeof attrs,
                      "\"status\":\"%s\",\"queue_us\":%.3f,"
                      "\"sample_us\":%.3f,\"gather_us\":%.3f,"
                      "\"compute_us\":%.3f,\"e2e_us\":%.3f,"
                      "\"batched_with\":%u,\"flops\":%llu",
                      std::string(toString(rec.code)).c_str(),
                      r.queue_us, r.sample_us, r.gather_us, r.compute_us,
                      r.e2e_us, r.batched_with,
                      static_cast<unsigned long long>(r.flops));
        const std::uint64_t req =
            spans.add("request", rec.due, done, 0, job_id, attrs);
        spans.add("service.submit", rec.submit_start, rec.submit_end, req,
                  job_id);
    }
    if (rec.probe)
        rec.reply = std::make_shared<Reply>(std::move(r));
}

/** Futures handed from a submitter to its waiters. */
struct Handoff {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::pair<std::size_t, std::future<Reply>>> items;
    bool closed = false;

    void
    push(std::size_t idx, std::future<Reply> f)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            items.emplace_back(idx, std::move(f));
        }
        cv.notify_one();
    }

    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            closed = true;
        }
        cv.notify_all();
    }

    bool
    pop(std::pair<std::size_t, std::future<Reply>> &out)
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return closed || !items.empty(); });
        if (items.empty())
            return false;
        out = std::move(items.front());
        items.pop_front();
        return true;
    }
};

} // namespace

double
processCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto s = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

LoadRun
runLoad(service::Service &svc, const Workload &w, std::uint64_t seed,
        double seconds, SpanLog &spans)
{
    const std::size_t n_streams = w.streams.size();
    std::size_t n_open = 0;
    for (const Stream &s : w.streams)
        n_open += s.open() ? 1 : 0;
    // One thread per stream submits (or runs the closed loop); the
    // rest of kThreads wait on open-loop replies, at least one each.
    const std::size_t waiters_per_open = std::max<std::size_t>(
        1, (kThreads - std::min(kThreads, n_streams)) /
               std::max<std::size_t>(1, n_open));
    const std::uint32_t hidden = w.hidden;

    // Arrival schedules are drawn before anything runs.
    std::vector<std::vector<JobRecord>> per(n_streams);
    for (std::size_t si = 0; si < n_streams; ++si) {
        const Stream &s = w.streams[si];
        if (!s.open())
            continue;
        // A Poisson process conditioned on its count: exactly
        // rate * seconds arrivals, placed uniformly at random, so the
        // offered load is the same in every run of the workload.
        Rng rng(mix(seed, 0x100 + si));
        const auto n_jobs =
            static_cast<std::size_t>(std::llround(s.rate_jobs_s * seconds));
        std::vector<double> due_s(n_jobs);
        for (double &t : due_s)
            t = rng.nextDouble() * seconds;
        std::sort(due_s.begin(), due_s.end());
        for (std::size_t n = 0; n < n_jobs; ++n) {
            JobRecord rec;
            rec.stream = static_cast<std::uint32_t>(si);
            rec.due = Clock::time_point{} +
                      std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due_s[n]));
            rec.probe = n % s.probe_every == s.probe_every / 2;
            rec.seed = rec.probe ? mix(seed, 0x200000 + si * 1000003 + n)
                                 : 0;
            per[si].push_back(rec);
        }
    }

    LoadRun run;
    // jthreads: joined on every path out of this function.
    std::vector<std::jthread> threads;
    std::vector<std::unique_ptr<Handoff>> handoffs(n_streams);
    run.cpu_s = -processCpuS();
    run.start = Clock::now() + std::chrono::milliseconds(2);
    const auto deadline =
        run.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    for (std::size_t si = 0; si < n_streams; ++si) {
        const Stream &s = w.streams[si];
        // Span job ids: stream in the high bits, job index below.
        const std::uint64_t id_base = 1 + (si << 40);
        if (s.open()) {
            auto &jobs = per[si];
            for (JobRecord &rec : jobs)
                rec.due = run.start + rec.due.time_since_epoch();
            handoffs[si] = std::make_unique<Handoff>();
            Handoff *box = handoffs[si].get();
            threads.emplace_back([&svc, &s, &jobs, box] {
                for (std::size_t i = 0; i < jobs.size(); ++i) {
                    JobRecord &rec = jobs[i];
                    std::this_thread::sleep_until(rec.due);
                    const Job job = makeJob(s, rec.seed);
                    rec.submit_start = Clock::now();
                    std::future<Reply> f = svc.submit(job);
                    rec.submit_end = Clock::now();
                    box->push(i, std::move(f));
                }
                box->close();
            });
            for (std::size_t k = 0; k < waiters_per_open; ++k)
                threads.emplace_back([&, box, si, id_base] {
                    std::pair<std::size_t, std::future<Reply>> item;
                    while (box->pop(item)) {
                        item.second.wait();
                        const auto done = Clock::now();
                        record(per[si][item.first], item.second.get(),
                               done, w.streams[si], hidden, spans,
                               id_base + item.first);
                    }
                });
        } else {
            // Closed loop: keep `outstanding` jobs in flight until the
            // window ends, then collect the stragglers.
            threads.emplace_back([&, si, id_base] {
                auto &jobs = per[si];
                jobs.reserve(static_cast<std::size_t>(
                    seconds * 1000.0 + 64));
                std::deque<std::pair<std::size_t, std::future<Reply>>>
                    inflight;
                std::uint64_t n = 0;
                const auto submitOne = [&] {
                    JobRecord rec;
                    rec.stream = static_cast<std::uint32_t>(si);
                    rec.probe = n % s.probe_every == s.probe_every / 2;
                    rec.seed = rec.probe
                                   ? mix(seed, 0x300000 + si * 1000003 + n)
                                   : 0;
                    ++n;
                    const Job job = makeJob(s, rec.seed);
                    rec.submit_start = rec.due = Clock::now();
                    std::future<Reply> f = svc.submit(job);
                    rec.submit_end = Clock::now();
                    jobs.push_back(std::move(rec));
                    inflight.emplace_back(jobs.size() - 1, std::move(f));
                };
                std::this_thread::sleep_until(run.start);
                for (std::uint32_t k = 0; k < s.outstanding; ++k)
                    submitOne();
                while (!inflight.empty()) {
                    auto item = std::move(inflight.front());
                    inflight.pop_front();
                    item.second.wait();
                    const auto done = Clock::now();
                    record(jobs[item.first], item.second.get(), done, s,
                           hidden, spans, id_base + item.first);
                    if (done < deadline)
                        submitOne();
                }
            });
        }
    }
    for (std::jthread &t : threads)
        t.join();
    run.cpu_s += processCpuS();

    run.end = run.start;
    for (auto &jobs : per)
        for (JobRecord &rec : jobs) {
            run.end = std::max(run.end, rec.done);
            run.jobs.push_back(std::move(rec));
        }
    return run;
}

bool
warmEveryWorker(service::Service &svc, const Workload &w,
                std::uint64_t seed)
{
    const Stream &s = w.streams.front();
    std::set<std::uint32_t> seen;
    const auto give_up = Clock::now() + std::chrono::seconds(30);
    std::uint64_t n = 0;
    while (seen.size() < w.workers && Clock::now() < give_up) {
        std::vector<std::future<Reply>> fs;
        for (std::uint32_t k = 0; k < w.workers; ++k)
            fs.push_back(svc.submit(makeJob(s, mix(seed, 0x400000 + n++))));
        for (auto &f : fs) {
            Reply r = f.get();
            if (!shapeOk(r, s, w.hidden))
                return false;
            seen.insert(r.worker);
        }
    }
    return seen.size() == w.workers;
}

} // namespace perfbench

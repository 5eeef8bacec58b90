/**
 * @file
 * In-memory span log of the benchmark's traced run.
 *
 * Spans are recorded by benchmark code around calls into the
 * program's public API (nothing inside the library is instrumented).
 * Each span carries a name, start, end, parent span and job id; the
 * log is kept in memory while the run measures and written out once
 * it ends. selfUs() derives a layer's self time: the span's duration
 * minus the part of it that its child spans cover.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root span
    std::uint64_t job = 0;
    /** Extra JSON members ("\"k\":v,..."), may be empty. */
    std::string attrs;

    double
    durationUs() const
    {
        return std::chrono::duration<double, std::micro>(end - start)
            .count();
    }
};

/** Thread-safe append-only span store; disabled logs record nothing. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record one finished span; returns its id (0 when disabled). */
    std::uint64_t
    add(std::string name, Clock::time_point start, Clock::time_point end,
        std::uint64_t parent, std::uint64_t job, std::string attrs = {})
    {
        if (!enabled_)
            return 0;
        std::lock_guard<std::mutex> lock(mutex_);
        const std::uint64_t id = spans_.size() + 1;
        spans_.push_back(Span{std::move(name), start, end, id, parent,
                              job, std::move(attrs)});
        return id;
    }

    /** Reserve an id for a span whose end is not known yet. */
    std::uint64_t
    open(std::string name, Clock::time_point start, std::uint64_t parent,
         std::uint64_t job)
    {
        return add(std::move(name), start, start, parent, job);
    }

    /** Close a span opened with open(). */
    void
    close(std::uint64_t id, Clock::time_point end, std::string attrs = {})
    {
        if (!enabled_ || id == 0)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[id - 1].end = end;
        spans_[id - 1].attrs = std::move(attrs);
    }

    /** Snapshot (call once recording threads have finished). */
    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * Self time of every span, microseconds, indexed like @p spans:
 * duration minus the union of its children's intervals (clipped to
 * the parent).
 */
inline std::vector<double>
selfUs(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> kids;
    for (const Span &s : spans)
        if (s.parent != 0)
            kids[s.parent].push_back(&s);
    std::vector<double> out;
    out.reserve(spans.size());
    for (const Span &s : spans) {
        double covered = 0.0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            // Union of child intervals, clipped to the parent.
            std::vector<std::pair<Clock::time_point, Clock::time_point>>
                iv;
            for (const Span *c : it->second) {
                const auto b = std::max(c->start, s.start);
                const auto e = std::min(c->end, s.end);
                if (e > b)
                    iv.emplace_back(b, e);
            }
            std::sort(iv.begin(), iv.end());
            Clock::time_point cur_b{}, cur_e{};
            bool have = false;
            for (const auto &[b, e] : iv) {
                if (have && b <= cur_e) {
                    cur_e = std::max(cur_e, e);
                    continue;
                }
                if (have)
                    covered += std::chrono::duration<double, std::micro>(
                                   cur_e - cur_b)
                                   .count();
                cur_b = b;
                cur_e = e;
                have = true;
            }
            if (have)
                covered += std::chrono::duration<double, std::micro>(
                               cur_e - cur_b)
                               .count();
        }
        out.push_back(s.durationUs() - covered);
    }
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH

/**
 * @file
 * Order statistics and a minimal JSON writer for the serving
 * benchmark's reports.
 */

#ifndef PERFBENCH_SUMMARY_HH
#define PERFBENCH_SUMMARY_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Linearly interpolated quantile (q in [0, 1]); 0 for no samples. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Samples strictly above @p threshold. */
inline std::size_t
countAbove(const std::vector<double> &v, double threshold)
{
    return static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(),
                      [&](double x) { return x > threshold; }));
}

/** a / b, 0 when b is 0. */
inline double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/**
 * Streaming JSON writer: objects and arrays nest through begin/end,
 * commas are inserted automatically. Doubles print with 17
 * significant digits so a value round-trips exactly.
 */
class Json
{
  public:
    Json &
    beginObject(std::string_view key = {})
    {
        open(key, '{');
        return *this;
    }

    Json &
    beginArray(std::string_view key = {})
    {
        open(key, '[');
        return *this;
    }

    Json &
    end()
    {
        os_ << (stack_.back() == '{' ? '}' : ']');
        stack_.pop_back();
        first_ = false;
        return *this;
    }

    Json &
    kv(std::string_view key, double v)
    {
        prefix(key);
        number(v);
        return *this;
    }

    Json &
    kv(std::string_view key, std::uint64_t v)
    {
        prefix(key);
        os_ << v;
        return *this;
    }

    Json &
    kv(std::string_view key, std::uint32_t v)
    {
        return kv(key, static_cast<std::uint64_t>(v));
    }

    Json &
    kv(std::string_view key, bool v)
    {
        prefix(key);
        os_ << (v ? "true" : "false");
        return *this;
    }

    Json &
    kv(std::string_view key, std::string_view v)
    {
        prefix(key);
        quoted(v);
        return *this;
    }

    Json &
    kv(std::string_view key, const char *v)
    {
        return kv(key, std::string_view(v));
    }

    /** Bare array element. */
    Json &
    value(double v)
    {
        prefix({});
        number(v);
        return *this;
    }

    std::string str() const { return os_.str(); }

  private:
    void
    open(std::string_view key, char c)
    {
        prefix(key);
        os_ << c;
        stack_.push_back(c);
        first_ = true;
    }

    void
    prefix(std::string_view key)
    {
        if (!first_)
            os_ << ',';
        first_ = false;
        if (!key.empty()) {
            quoted(key);
            os_ << ':';
        }
    }

    void
    number(double v)
    {
        if (!std::isfinite(v)) {
            os_ << "null";
            return;
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        os_ << buf;
    }

    void
    quoted(std::string_view s)
    {
        os_ << '"';
        for (const char c : s) {
            if (c == '"' || c == '\\')
                os_ << '\\' << c;
            else if (static_cast<unsigned char>(c) < 0x20)
                os_ << ' ';
            else
                os_ << c;
        }
        os_ << '"';
    }

    std::ostringstream os_;
    std::string stack_;
    bool first_ = true;
};

} // namespace perfbench

#endif // PERFBENCH_SUMMARY_HH

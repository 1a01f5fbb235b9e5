#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

namespace keqbench {

namespace {

int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Percentile
percentile(std::vector<double> samples, double q)
{
    Percentile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    double exact = q * static_cast<double>(samples.size());
    size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    out.value = samples[rank - 1];
    out.beyond = samples.size() - rank;
    return out;
}

void
RequestTally::record(double latencySeconds, bool ok, size_t functions)
{
    latencies_.push_back(ok ? latencySeconds
                            : std::numeric_limits<double>::infinity());
    if (!ok)
        ++failed_;
    functions_ += functions;
}

double
RequestTally::failedRatio() const
{
    return latencies_.empty() ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(latencies_.size());
}

Percentile
RequestTally::latencyMs(double q) const
{
    Percentile p = percentile(latencies_, q);
    p.value *= 1e3;
    return p;
}

void
RequestTally::merge(const RequestTally &other)
{
    latencies_.insert(latencies_.end(), other.latencies_.begin(),
                      other.latencies_.end());
    failed_ += other.failed_;
    functions_ += other.functions_;
}

PassRates
medianPassRates(const std::vector<PassSample> &passes)
{
    std::vector<double> rates, cpu;
    for (const PassSample &pass : passes) {
        if (pass.functions == 0 || pass.wallSeconds <= 0)
            continue;
        double functions = static_cast<double>(pass.functions);
        rates.push_back(functions / pass.wallSeconds);
        cpu.push_back(pass.cpuSeconds / functions);
    }
    PassRates out;
    out.passes = rates.size();
    out.functionsPerSecond = percentile(rates, 0.5).value;
    out.cpuSecondsPerFunction = percentile(cpu, 0.5).value;
    return out;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<uint64_t, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &span : spans) {
        auto parent = index.find(span.parent);
        if (span.parent == 0 || parent == index.end())
            continue;
        const Span &p = spans[parent->second];
        double lo = std::max(span.start, p.start);
        double hi = std::min(span.end, p.end);
        if (hi > lo)
            children[parent->second].emplace_back(lo, hi);
    }
    std::vector<double> out(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        std::vector<std::pair<double, double>> &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double runStart = 0.0, runEnd = 0.0;
        bool open = false;
        for (const auto &[lo, hi] : kids) {
            if (open && lo <= runEnd) {
                runEnd = std::max(runEnd, hi);
                continue;
            }
            if (open)
                covered += runEnd - runStart;
            runStart = lo;
            runEnd = hi;
            open = true;
        }
        if (open)
            covered += runEnd - runStart;
        out[i] = std::max(0.0, spans[i].duration() - covered);
    }
    return out;
}

SpanRecorder::SpanRecorder() : epochNs_(steadyNs()) {}

double
SpanRecorder::now() const
{
    return static_cast<double>(steadyNs() - epochNs_) * 1e-9;
}

uint64_t
SpanRecorder::newId()
{
    return nextId_.fetch_add(1);
}

uint64_t
SpanRecorder::record(Span span)
{
    if (span.id == 0)
        span.id = newId();
    uint64_t id = span.id;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return id;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
traceEventJson(const std::vector<Span> &spans,
               const std::map<std::string, std::string> &metadata)
{
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    bool first = true;
    for (const auto &[key, value] : metadata) {
        os << (first ? "" : ",") << jsonString(key) << ":"
           << jsonString(value);
        first = false;
    }
    os << "},\"traceEvents\":[";
    first = true;
    for (const Span &span : spans) {
        os << (first ? "\n" : ",\n") << "{\"name\":" << jsonString(span.name)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
           << ",\"ts\":" << jsonNumber(span.start * 1e6)
           << ",\"dur\":" << jsonNumber(span.duration() * 1e6)
           << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
           << ",\"request\":" << span.request;
        for (const auto &[key, value] : span.counts)
            os << "," << jsonString(key) << ":" << jsonNumber(value);
        os << "}}";
        first = false;
    }
    os << "\n]}\n";
    return os.str();
}

} // namespace keqbench

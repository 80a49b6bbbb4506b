/**
 * @file
 * Span recorder and sample statistics.
 */

#include "src/spans.hh"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <unordered_map>

namespace perfbench
{

uint32_t
SpanRecorder::record(const std::string &name, uint32_t parent,
                     Clock::time_point start, Clock::time_point end)
{
    if (!on)
        return 0;
    std::lock_guard lock(mtx);
    uint32_t id = static_cast<uint32_t>(store.size()) + 1;
    store.push_back(Span{name, id, parent, start, end});
    return id;
}

uint32_t
SpanRecorder::open(const std::string &name, uint32_t parent)
{
    if (!on)
        return 0;
    auto now = Clock::now();
    return record(name, parent, now, now);
}

void
SpanRecorder::close(uint32_t id)
{
    if (id == 0)
        return;
    auto now = Clock::now();
    std::lock_guard lock(mtx);
    store[id - 1].end = now;
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    std::lock_guard lock(mtx);
    std::unordered_map<uint32_t, std::vector<const Span *>> children;
    for (const Span &s : store)
        if (s.parent)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const Span &s : store) {
        double covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            // Union of the child intervals, clipped to the parent.
            std::vector<std::pair<Clock::time_point, Clock::time_point>>
                iv;
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->start, s.start),
                                std::min(c->end, s.end));
            std::sort(iv.begin(), iv.end());
            Clock::time_point curStart{}, curEnd{};
            bool open = false;
            for (auto [a, b] : iv) {
                if (b <= a)
                    continue;
                if (open && a <= curEnd) {
                    curEnd = std::max(curEnd, b);
                    continue;
                }
                if (open)
                    covered += seconds(curStart, curEnd);
                curStart = a;
                curEnd = b;
                open = true;
            }
            if (open)
                covered += seconds(curStart, curEnd);
        }
        self[s.name] += seconds(s.start, s.end) - covered;
    }
    return self;
}

void
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::lock_guard lock(mtx);
    std::ofstream out(path);
    if (store.empty() || !out)
        return;
    Clock::time_point epoch = store.front().start;
    for (const Span &s : store)
        epoch = std::min(epoch, s.start);
    auto us = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   t - epoch)
            .count();
    };
    for (const Span &s : store) {
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"name\":\"" << s.name << "\",\"start_us\":"
            << us(s.start) << ",\"end_us\":" << us(s.end) << "}\n";
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

double
tail(std::vector<double> v, double &pct)
{
    if (v.empty()) {
        pct = 0;
        return 0;
    }
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    if (n < 11) {
        pct = 100;
        return v.back();
    }
    pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    return v[n - 11];
}

} // namespace perfbench

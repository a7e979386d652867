#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "json.hh"

namespace perfbench
{

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint64_t
Tracer::begin()
{
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
}

std::uint32_t
Tracer::threadIndexLocked()
{
    const std::uint64_t key =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    auto it = thread_ids_.find(key);
    if (it == thread_ids_.end()) {
        const auto index = static_cast<std::uint32_t>(thread_ids_.size());
        it = thread_ids_.emplace(key, index).first;
    }
    return it->second;
}

void
Tracer::end(std::uint64_t id, std::string name, std::string detail,
            std::uint64_t parent, Clock::time_point start)
{
    const Clock::time_point stop = Clock::now();
    SpanRecord rec;
    rec.name = std::move(name);
    rec.detail = std::move(detail);
    rec.id = id;
    rec.parent = parent;
    rec.start_us =
        std::chrono::duration<double, std::micro>(start - origin_)
            .count();
    rec.dur_us =
        std::chrono::duration<double, std::micro>(stop - start).count();
    std::lock_guard<std::mutex> lock(mu_);
    rec.tid = threadIndexLocked();
    spans_.push_back(std::move(rec));
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    const std::vector<SpanRecord> all = spans();
    std::map<std::uint64_t, std::vector<const SpanRecord *>> children;
    for (const SpanRecord &s : all)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, SpanTotals> out;
    for (const SpanRecord &s : all) {
        const double lo = s.start_us, hi = s.start_us + s.dur_us;
        std::vector<std::pair<double, double>> cover;
        auto it = children.find(s.id);
        if (it != children.end()) {
            for (const SpanRecord *c : it->second) {
                const double a = std::max(lo, c->start_us);
                const double b = std::min(hi, c->start_us + c->dur_us);
                if (b > a)
                    cover.emplace_back(a, b);
            }
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0, run_lo = 0.0, run_hi = -1.0;
        for (const auto &[a, b] : cover) {
            if (a > run_hi) {
                if (run_hi > run_lo)
                    covered += run_hi - run_lo;
                run_lo = a;
                run_hi = b;
            } else {
                run_hi = std::max(run_hi, b);
            }
        }
        if (run_hi > run_lo)
            covered += run_hi - run_lo;
        SpanTotals &t = out[s.name];
        ++t.count;
        t.total_s += s.dur_us * 1e-6;
        t.self_s += (s.dur_us - covered) * 1e-6;
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    const std::vector<SpanRecord> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (const SpanRecord &s : all) {
        std::fprintf(f,
                     "%s\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu,"
                     "\"detail\":%s}}",
                     first ? "" : ",", jsonString(s.name).c_str(),
                     jsonString(s.name.substr(0, s.name.find('.')))
                         .c_str(),
                     s.tid, s.start_us, s.dur_us,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     jsonString(s.detail).c_str());
        first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

Span::Span(const char *name, std::uint64_t parent, std::string detail)
    : name_(name), parent_(parent)
{
    Tracer &tracer = Tracer::instance();
    if (!tracer.enabled())
        return;
    detail_ = std::move(detail);
    id_ = tracer.begin();
    start_ = Clock::now();
}

Span::~Span()
{
    if (id_ != 0)
        Tracer::instance().end(id_, name_, std::move(detail_), parent_,
                               start_);
}

} // namespace perfbench

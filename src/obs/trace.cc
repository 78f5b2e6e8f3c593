#include "obs/trace.h"

#include <cstdio>

namespace simr::obs
{

namespace
{

std::string
fmtTs(double us)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f", us);
    return buf;
}

void
renderEvent(const TraceEvent &e, std::string &out)
{
    out += "{\"name\":" + jstr(e.name) + ",\"cat\":" +
        jstr(e.cat.empty() ? "simr" : e.cat) + ",\"ph\":\"";
    out += e.ph;
    out += "\",\"ts\":" + fmtTs(e.tsUs);
    if (e.ph == 'X')
        out += ",\"dur\":" + fmtTs(e.durUs);
    out += ",\"pid\":" + std::to_string(e.pid) +
        ",\"tid\":" + std::to_string(e.tid);
    if (e.hasId)
        out += ",\"id\":" + std::to_string(e.id);
    if (!e.args.empty()) {
        out += ",\"args\":{";
        for (size_t i = 0; i < e.args.size(); ++i) {
            if (i)
                out += ",";
            out += "\"" + e.args[i].first + "\":" + e.args[i].second;
        }
        out += "}";
    }
    out += "}";
}

} // namespace

std::string
jnum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
jnum(uint64_t v)
{
    return std::to_string(v);
}

std::string
jstr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += "\"";
    return out;
}

void
Tracer::push(TraceEvent &&e)
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(e));
}

void
Tracer::complete(const std::string &name, const std::string &cat,
                 double ts_us, double dur_us, int pid, int tid,
                 TraceArgs args)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'X';
    e.tsUs = ts_us;
    e.durUs = dur_us;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    push(std::move(e));
}

void
Tracer::begin(const std::string &name, const std::string &cat,
              double ts_us, int pid, int tid, TraceArgs args)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'B';
    e.tsUs = ts_us;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    push(std::move(e));
}

void
Tracer::end(double ts_us, int pid, int tid)
{
    TraceEvent e;
    e.ph = 'E';
    e.tsUs = ts_us;
    e.pid = pid;
    e.tid = tid;
    push(std::move(e));
}

void
Tracer::instant(const std::string &name, const std::string &cat,
                double ts_us, int pid, int tid, TraceArgs args)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'i';
    e.tsUs = ts_us;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    push(std::move(e));
}

void
Tracer::asyncBegin(const std::string &name, const std::string &cat,
                   uint64_t id, double ts_us, int pid, TraceArgs args)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'b';
    e.tsUs = ts_us;
    e.pid = pid;
    e.id = id;
    e.hasId = true;
    e.args = std::move(args);
    push(std::move(e));
}

void
Tracer::asyncEnd(const std::string &name, const std::string &cat,
                 uint64_t id, double ts_us, int pid)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'e';
    e.tsUs = ts_us;
    e.pid = pid;
    e.id = id;
    e.hasId = true;
    push(std::move(e));
}

namespace
{

TraceEvent
flowEvent(const std::string &name, const std::string &cat, char ph,
          uint64_t id, double ts_us, int pid, int tid)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = ph;
    e.tsUs = ts_us;
    e.pid = pid;
    e.tid = tid;
    e.id = id;
    e.hasId = true;
    return e;
}

} // namespace

void
Tracer::flowStart(const std::string &name, const std::string &cat,
                  uint64_t id, double ts_us, int pid, int tid)
{
    push(flowEvent(name, cat, 's', id, ts_us, pid, tid));
}

void
Tracer::flowStep(const std::string &name, const std::string &cat,
                 uint64_t id, double ts_us, int pid, int tid)
{
    push(flowEvent(name, cat, 't', id, ts_us, pid, tid));
}

void
Tracer::flowEnd(const std::string &name, const std::string &cat,
                uint64_t id, double ts_us, int pid, int tid)
{
    push(flowEvent(name, cat, 'f', id, ts_us, pid, tid));
}

void
Tracer::processName(int pid, const std::string &name)
{
    TraceEvent e;
    e.name = "process_name";
    e.ph = 'M';
    e.pid = pid;
    e.args.emplace_back("name", jstr(name));
    push(std::move(e));
}

void
Tracer::threadName(int pid, int tid, const std::string &name)
{
    TraceEvent e;
    e.name = "thread_name";
    e.ph = 'M';
    e.pid = pid;
    e.tid = tid;
    e.args.emplace_back("name", jstr(name));
    push(std::move(e));
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::string
Tracer::json() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < events_.size(); ++i) {
        renderEvent(events_[i], out);
        out += i + 1 < events_.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
}

bool
Tracer::writeFile(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string page = json();
    size_t n = std::fwrite(page.data(), 1, page.size(), f);
    bool ok = n == page.size();
    return std::fclose(f) == 0 && ok;
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
}

} // namespace simr::obs

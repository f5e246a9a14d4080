#include "trace.hpp"

#include <sys/syscall.h>
#include <unistd.h>

namespace perfbench {

namespace {

// Record, stage and event spans give the tree its shape; their self time
// is glue, not a layer.
bool is_structural_layer(std::string_view layer) {
  return layer.substr(0, 9) == "pipeline.";
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Tracer::Tracer(std::string workload)
    : workload_(std::move(workload)), t0_(std::chrono::steady_clock::now()) {
  spans_.reserve(4096);
}

int Tracer::begin(std::string_view layer, std::string_view function,
                  std::string_view subject) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.layer = layer;
  s.function = function;
  s.subject = subject;
  if (s.subject.empty() && s.parent >= 0) s.subject = spans_[s.parent].subject;
  s.thread = static_cast<long>(::syscall(SYS_gettid));
  s.start = seconds_since(t0_);
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id, double work) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = seconds_since(t0_);
  s.work = work;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, LayerTotals> Tracer::layer_totals() const {
  std::map<std::string, LayerTotals> out;
  for (const Span& s : spans_) {
    if (is_structural_layer(s.layer)) continue;
    LayerTotals& t = out[s.layer];
    t.seconds += s.end - s.start;
    ++t.calls;
    t.work += s.work;
  }
  return out;
}

std::map<std::string, double> Tracer::stage_totals() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    if (s.layer == "pipeline.stage") out[s.function] += s.end - s.start;
  }
  return out;
}

acx::Json Tracer::to_chrome() const {
  acx::Json events = acx::Json::array();
  for (const Span& s : spans_) {
    const double start_us = s.start * 1e6;
    const double end_us = s.end * 1e6;
    acx::Json args = acx::Json::object();
    args.set("workload", workload_);
    args.set("subject", s.subject);
    args.set("layer", s.layer);
    args.set("function", s.function);
    args.set("thread", static_cast<double>(s.thread));
    args.set("start_us", start_us);
    args.set("end_us", end_us);
    args.set("id", s.id);
    args.set("parent", s.parent);
    if (s.work > 0) args.set("work", s.work);

    acx::Json e = acx::Json::object();
    e.set("name", s.function);
    e.set("cat", s.layer);
    e.set("ph", "X");
    e.set("ts", start_us);
    e.set("dur", end_us - start_us);
    e.set("pid", 1);
    e.set("tid", static_cast<double>(s.thread));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  acx::Json root = acx::Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  return root;
}

}  // namespace perfbench

#pragma once

// In-memory span recorder for the traced replay. Spans are kept in a
// vector and written out once, as Chrome trace-event JSON, when the
// benchmark ends. A null Tracer* turns every span into a no-op, which is
// how the untraced replay (and the trace-overhead measurement) runs the
// exact same code.

#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;       // -1 = root
  std::string layer;     // "formats.write", "pipeline.stage", ...
  std::string function;  // "write_r", "response", ...
  std::string subject;   // record or station id
  long thread = 0;
  double start = 0;  // seconds since the tracer was created
  double end = 0;
  double work = 0;   // bytes or cell-steps, depending on the layer
};

// Per-layer aggregate over leaf spans.
struct LayerTotals {
  double seconds = 0;
  long long calls = 0;
  double work = 0;
};

class Tracer {
 public:
  explicit Tracer(std::string workload);

  int begin(std::string_view layer, std::string_view function,
            std::string_view subject);
  void end(int id, double work);

  const std::vector<Span>& spans() const { return spans_; }
  // Leaf spans (layer calls) summed by layer; the structural spans
  // ("pipeline.*") are excluded — their self time is the glue the
  // ledger reports as unattributed.
  std::map<std::string, LayerTotals> layer_totals() const;
  // Stage spans summed by stage name (function of the "pipeline.stage"
  // spans) — compared against the run report's stage_totals.
  std::map<std::string, double> stage_totals() const;

  acx::Json to_chrome() const;

 private:
  std::string workload_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; no-op when the tracer is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string_view layer, std::string_view function,
            std::string_view subject = {})
      : tracer_(tracer),
        id_(tracer ? tracer->begin(layer, function, subject) : -1) {}
  ~SpanScope() {
    if (tracer_) tracer_->end(id_, work_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void add_work(double w) { work_ += w; }

 private:
  Tracer* tracer_;
  int id_;
  double work_ = 0;
};

}  // namespace perfbench

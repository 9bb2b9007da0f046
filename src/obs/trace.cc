#include "src/obs/trace.h"

namespace nephele {

TraceSpan::TraceSpan(TraceRecorder& recorder, std::string name) : recorder_(&recorder) {
  event_.name = std::move(name);
  event_.start = recorder.Now();
}

void TraceSpan::AddArg(std::string key, std::int64_t value) {
  event_.args.emplace_back(std::move(key), value);
}

void TraceSpan::End() {
  if (recorder_ == nullptr) {
    return;
  }
  event_.end = recorder_->Now();
  recorder_->Record(std::move(event_));
  recorder_ = nullptr;
}

std::string TraceRecorder::ExportJson() const {
  std::string out = "{\n  \"spans\": [";
  bool first = true;
  for (const TraceEvent& e : events_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + e.name + "\", \"start_ns\": " + std::to_string(e.start.ns()) +
           ", \"end_ns\": " + std::to_string(e.end.ns());
    if (!e.args.empty()) {
      out += ", \"args\": {";
      bool first_arg = true;
      for (const auto& [key, value] : e.args) {
        if (!first_arg) {
          out += ", ";
        }
        first_arg = false;
        out += "\"" + key + "\": " + std::to_string(value);
      }
      out += "}";
    }
    out += "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace nephele

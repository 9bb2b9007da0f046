#include "driver/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <queue>

#include "src/sim/rng.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  return nephele::Rng(nephele::Rng(seed).NextU64() ^ stream).NextU64();
}

double ReferenceKernelSeconds() {
  // A self-contained discrete-event loop: a min-heap of timed callbacks,
  // each of which records into an ordered map and schedules a successor.
  // Deliberately independent of src/, so a faster simulator never makes
  // the reference faster too.
  struct Event {
    std::uint64_t when;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  const std::int64_t start = HostNowNs();
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::map<std::uint64_t, std::uint64_t> table;
  std::uint64_t now = 0, seq = 0, x = 88172645463325252ULL, ran = 0;
  std::function<void(std::uint64_t)> post = [&](std::uint64_t key) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t pad[3] = {key, x, seq};  // a capture too large to store inline
    queue.push({now + x % 1000, seq++, [&, pad] {
                  table[pad[0] % 4096] += pad[1];
                  if (++ran < 100000) {
                    post(pad[1]);
                  }
                }});
  };
  for (std::uint64_t i = 0; i < 1024; ++i) {
    post(i);
  }
  while (!queue.empty()) {
    Event ev = queue.top();
    queue.pop();
    now = ev.when;
    ev.fn();
  }
  volatile std::uint64_t sink = ran + table.size();
  (void)sink;
  return static_cast<double>(HostNowNs() - start) / 1e9;
}

// --- Tracer ----------------------------------------------------------------

Tracer::Scope Tracer::Begin(const char* name) {
  if (!enabled_) {
    return Scope();
  }
  Span span;
  span.name = name;
  span.parent = open_;
  span.op = op_;
  span.sim_start_ns = SimNow();
  span.host_start_ns = HostNowNs();
  spans_.push_back(span);
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return Scope(this, open_);
}

void Tracer::Scope::End() {
  if (tracer_ == nullptr) {
    return;
  }
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.host_end_ns = HostNowNs();
  span.sim_end_ns = tracer_->SimNow();
  tracer_->open_ = span.parent;
  tracer_ = nullptr;
}

std::vector<double> Tracer::DurationsNs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.host_end_ns - s.host_start_ns));
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].host_end_ns - spans_[i].host_start_ns;
  }
  // Spans nest strictly on the single simulation thread, so the children of
  // a span cover disjoint parts of it.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.host_end_ns - s.host_start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::string_view name = spans_[i].name;
    out[std::string(name.substr(0, name.find('.')))] += static_cast<double>(self[i]) / 1e9;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().host_start_ns;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %d, "
                 "\"op\": %llu, \"sim_start_ns\": %lld, \"sim_end_ns\": %lld}}",
                 i == 0 ? "" : ",\n", s.name,
                 static_cast<double>(s.host_start_ns - t0) / 1e3,
                 static_cast<double>(s.host_end_ns - s.host_start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.op), static_cast<long long>(s.sim_start_ns),
                 static_cast<long long>(s.sim_end_ns));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// --- Registry snapshots ----------------------------------------------------

RegistrySnapshot RegistrySnapshot::Take(const nephele::MetricsRegistry& registry) {
  return Take(std::vector<const nephele::MetricsRegistry*>{&registry});
}

RegistrySnapshot RegistrySnapshot::Take(
    const std::vector<const nephele::MetricsRegistry*>& registries) {
  RegistrySnapshot snap;
  for (const nephele::MetricsRegistry* r : registries) {
    for (const auto& [name, v] : r->SnapshotCounters()) {
      snap.counters[name] += v;
    }
    for (const auto& [name, h] : r->SnapshotHistograms()) {
      auto& slot = snap.histograms[name];
      slot.count += h.count;
      slot.sum += h.sum;
    }
  }
  return snap;
}

std::uint64_t RegistrySnapshot::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

nephele::MetricsRegistry::HistogramSample RegistrySnapshot::Hist(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nephele::MetricsRegistry::HistogramSample{} : it->second;
}

double HistogramQuantile(const nephele::MetricsRegistry& registry, std::string_view name,
                         double q) {
  const nephele::Histogram* h = registry.FindHistogram(name);
  if (h == nullptr || h->count() == 0) {
    return 0;
  }
  const std::uint64_t count = h->count();
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  rank = std::max<std::uint64_t>(rank, 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
    seen += h->BucketCount(i);
    if (seen >= rank) {
      return static_cast<double>(i < h->bounds().size() ? h->bounds()[i] : h->max());
    }
  }
  return static_cast<double>(h->max());
}

// --- Shared metric fills ---------------------------------------------------

void FillCommonSim(RoundResult& round) {
  const auto n = static_cast<std::uint64_t>(round.op_sim_ns.size());
  round.sim["op_sim_ms_p50"] = {Quantile(round.op_sim_ns, 0.50) / 1e6, n};
  round.sim["op_sim_ms_p99"] = {Quantile(round.op_sim_ns, 0.99) / 1e6, n};
  round.sim["sim_ops_per_s"] = {
      round.measure_sim_s > 0 ? static_cast<double>(n) / round.measure_sim_s : 0, n};
  round.sim["failed_ratio"] = {
      round.attempted > 0
          ? static_cast<double>(round.failed) / static_cast<double>(round.attempted)
          : 0,
      round.attempted};
  round.sim["sim.events"] = {static_cast<double>(round.events), 1};
}

void FillSimLayer(RoundResult& round, const Tracer& tracer) {
  double drain_ns = 0;
  std::uint64_t calls = 0;
  for (const Span& s : tracer.spans()) {
    if (std::string_view(s.name) == "sim.drain") {
      drain_ns += static_cast<double>(s.host_end_ns - s.host_start_ns);
      ++calls;
    }
  }
  round.wall["sim.drain_host_s"] = {drain_ns / 1e9, calls};
  round.wall["sim.host_ns_per_event"] = {
      round.events > 0 ? drain_ns / static_cast<double>(round.events) : 0, round.events};
}

void PutHostP50(RoundResult& round, const Tracer& tracer, const char* metric, const char* span,
                double unit_ns) {
  std::vector<double> d = tracer.DurationsNs(span);
  const auto n = static_cast<std::uint64_t>(d.size());
  round.wall[metric] = {Median(std::move(d)) / unit_ns, n};
}

}  // namespace perfbench

// Metric samples, spans and process measurements of the ledger.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>

#include "ledger.h"

namespace ledger {

void Report::Add(const std::string& name, const std::string& unit,
                 double value) {
  auto it = series_.emplace(name, Series{unit, {}}).first;
  it->second.samples.push_back(value);
}

void Report::Layer(const std::string& name, const std::string& unit,
                   double value, CounterClass cls) {
  Add(name, unit, value);
  classes_[name] = cls;
}

void Report::Fail(const std::string& what) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(fail_mu_);
  // Keep the first few messages; the count carries the rest.
  if (failures_.size() < 20) failures_.push_back(what);
}

std::vector<std::string> Report::failures() const {
  std::lock_guard<std::mutex> lock(fail_mu_);
  return failures_;
}

double Report::Median(const std::string& name) const {
  auto it = series_.find(name);
  if (it == series_.end()) return std::numeric_limits<double>::quiet_NaN();
  return ledger::Median(it->second.samples);
}

namespace {

thread_local uint64_t tls_open_span = 0;  // innermost open span of a thread
thread_local int tls_tid = 0;
std::atomic<int> next_tid{1};

int ThreadId() {
  if (tls_tid == 0) tls_tid = next_tid.fetch_add(1);
  return tls_tid;
}

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
      continue;
    }
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

void Tracer::NameThread(const std::string& name) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[ThreadId()] = name;
}

double Tracer::SinceOriginUs(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* layer, const char* name,
                     uint64_t flow)
    : tracer_(tracer && tracer->enabled() ? tracer : nullptr),
      layer_(layer),
      name_(name),
      flow_(flow) {
  if (tracer_ != nullptr) {
    id_ = tracer_->next_span_.fetch_add(1);
    parent_ = tls_open_span;
    tls_open_span = id_;
  }
  start_ = std::chrono::steady_clock::now();
}

double Tracer::Scope::Stop() {
  if (seconds_ >= 0) return seconds_;
  auto end = std::chrono::steady_clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (tracer_ != nullptr) {
    tls_open_span = parent_;
    Span span;
    span.layer = layer_;
    span.name = name_;
    span.start_us = tracer_->SinceOriginUs(start_);
    span.end_us = tracer_->SinceOriginUs(end);
    span.id = id_;
    span.parent = parent_;
    span.flow = flow_;
    span.tid = ThreadId();
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    tracer_->spans_.push_back(std::move(span));
  }
  return seconds_;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& [tid, name] : thread_names_) {
    std::fprintf(f,
                 "%s{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": ",
                 first ? "" : ",\n", tid);
    WriteJsonString(f, name);
    std::fprintf(f, "}}");
    first = false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f, "%s{\"ph\": \"X\", \"name\": ", first ? "" : ",\n");
    WriteJsonString(f, s.name);
    std::fprintf(f, ", \"cat\": ");
    WriteJsonString(f, s.layer);
    std::fprintf(f,
                 ", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"span\": %llu, \"parent\": %llu, "
                 "\"flow\": %llu}}",
                 s.start_us, s.end_us - s.start_us, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.flow));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  // VmHWM, the high-water mark of this process image. getrusage's
  // ru_maxrss would also carry the resident set of the process that forked
  // and exec'ed this one (the Python runner).
  double kb = std::numeric_limits<double>::quiet_NaN();
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return kb;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

bool ResetPeakRss() {
  // Writing 5 to clear_refs sets VmHWM back to the current resident set.
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace ledger

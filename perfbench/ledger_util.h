// Measurement plumbing for the benchmark ledger: order statistics, the
// host-speed reference kernel, the in-memory span log of traced runs (with
// layer self time), and a minimal JSON object writer for the result lines.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Quantile with linear interpolation between closest ranks (q in [0, 1]).
/// Empty input yields 0.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

[[nodiscard]] inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Host-speed reference: a fixed piece of work that runs no simulator code,
/// a sort of 16K words and a pass of hashed reads and writes over a 128 KB
/// table. Its buffers are allocated once and it runs twice, timing the
/// second run, so its time depends on the speed of the CPU and not on the
/// heap or the caches the measured workload left behind. The timings of a
/// shared host drift by tens of percent over minutes and the reference
/// drifts with them, so its median over a run rescales the end-to-end
/// timings to a reference host. Returns its wall time in nanoseconds.
class ReferenceKernel {
 public:
  ReferenceKernel() : source_(1u << 14), work_(source_.size()), table_(1u << 14, 1) {
    std::uint64_t x = 88172645463325252ull;
    for (auto& word : source_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      word = static_cast<std::uint32_t>(x);
    }
  }

  [[nodiscard]] std::int64_t time_ns() {
    (void)run_once();
    return run_once();
  }

 private:
  std::int64_t run_once() {
    const std::int64_t t0 = now_ns();
    std::copy(source_.begin(), source_.end(), work_.begin());
    std::sort(work_.begin(), work_.end());
    std::uint64_t acc = 0;
    for (const std::uint32_t word : work_) {
      const std::uint64_t h = word * 0x9e3779b97f4a7c15ull;
      acc += table_[h >> 50];
      table_[(h >> 40) & (table_.size() - 1)] ^= acc;
    }
    sink_ = sink_ + acc;
    return now_ns() - t0;
  }

  std::vector<std::uint32_t> source_;
  std::vector<std::uint32_t> work_;
  std::vector<std::uint64_t> table_;
  volatile std::uint64_t sink_ = 0;
};

/// One span of a traced run: a named interval on the steady clock, its
/// parent (index into the log, -1 = root) and the operation it belongs to.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t op = 0;
};

/// Spans stay in memory for the whole run and are written out at exit.
class SpanLog {
 public:
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns, int parent,
          std::uint64_t op) {
    spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Open a span now; close() stamps its end.
  int open(std::string name, int parent, std::uint64_t op) {
    const std::int64_t t = now_ns();
    return add(std::move(name), t, t, parent, op);
  }
  void close(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }
  void set_end(int index, std::int64_t end_ns) {
    spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Self time of every span: its duration minus the union of the parts of
  /// its interval covered by its children.
  [[nodiscard]] std::vector<double> self_ns() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::vector<double> out(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0;
      std::int64_t cursor = s.start_ns;
      for (auto [b, e] : iv) {
        b = std::max(b, cursor);
        e = std::min(e, s.end_ns);
        if (e > b) {
          covered += e - b;
          cursor = e;
        }
      }
      out[i] = static_cast<double>(s.end_ns - s.start_ns - covered);
    }
    return out;
  }

  /// Self time per span name, one sample per span, in nanoseconds.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_by_name() const {
    const auto self = self_ns();
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name].push_back(self[i]);
    return out;
  }

  /// One JSON object per line: name, start/end (ns), parent, op, self (ns).
  [[nodiscard]] bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const auto self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out << "{\"i\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"op\":" << s.op
          << ",\"self_ns\":" << static_cast<std::int64_t>(self[i]) << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

/// Flat JSON object writer (string / number / bool / nested raw values).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace ledger

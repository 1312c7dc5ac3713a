// Shared helpers for the figure-reproduction benchmarks.
//
// Scale: every bench reads IMON_BENCH_SCALE (a double, default 1.0) and
// multiplies its workload sizes by it. The defaults are laptop-scale
// stand-ins for the paper's testbed (see EXPERIMENTS.md); raising the
// scale sharpens the measured ratios at the price of wall-clock time.

#ifndef IMON_BENCH_BENCH_UTIL_H_
#define IMON_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/clock.h"
#include "engine/database.h"

// Configure-time stamps for BENCH_*.json (bench/targets.cmake defines
// them for the targets that link imon_bench_env).
#ifndef IMON_BUILD_TYPE
#define IMON_BUILD_TYPE "unknown"
#endif
#ifndef IMON_GIT_COMMIT
#define IMON_GIT_COMMIT "unknown"
#endif

namespace imon::bench {

inline double BenchScale() {
  const char* env = std::getenv("IMON_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

inline int64_t Scaled(int64_t base) {
  double v = static_cast<double>(base) * BenchScale();
  return v < 1 ? 1 : static_cast<int64_t>(v);
}

/// Execute a statement, aborting the bench on failure.
inline engine::QueryResult MustExec(engine::Database* db,
                                    const std::string& sql) {
  auto r = db->Execute(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "bench: statement failed: %s\n  %s\n", sql.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r.TakeValue();
}

/// Run a batch of statements; returns wall-clock seconds.
inline double TimeStatements(engine::Database* db,
                             const std::vector<std::string>& statements) {
  int64_t start = MonotonicNanos();
  for (const std::string& sql : statements) MustExec(db, sql);
  return static_cast<double>(MonotonicNanos() - start) / 1e9;
}

inline void PrintHeader(const char* figure, const char* caption) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("(IMON_BENCH_SCALE=%.2f)\n", BenchScale());
  std::printf("================================================================\n");
}

/// Directory `BENCH_*.json` files land in: the build root (parent of
/// the bench/ or tests/ directory holding the running executable), so
/// machine-readable outputs collect under build/ no matter which
/// working directory the binary was launched from — a bench run from
/// the repo root must not strand artifacts there. Falls back to the
/// working directory when the executable path cannot be resolved.
inline std::string JsonOutputDir() {
#if defined(__linux__)
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  std::string exe(buf);
  size_t slash = exe.rfind('/');
  if (slash == std::string::npos || slash == 0) return "";
  std::string dir = exe.substr(0, slash);  // .../build/bench
  size_t parent = dir.rfind('/');
  if (parent == std::string::npos || parent == 0) return dir + "/";
  return dir.substr(0, parent) + "/";  // .../build
#else
  return "";
#endif
}

/// Collects named metrics and writes them as `BENCH_<bench>.json` under
/// the build root (see JsonOutputDir), so successive runs leave a
/// machine-readable trajectory next to the console output. Each file
/// carries an "env" object (core count, CPU model, build type, metrics
/// layer on/off, configure-time commit) naming the host and build that
/// produced its numbers.
class JsonWriter {
 public:
  explicit JsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void Metric(const std::string& name, double value,
              const std::string& unit = "") {
    metrics_.push_back({name, unit, value});
  }

  /// Write BENCH_<bench>.json; returns false (with a stderr note) on I/O
  /// failure so benches can keep printing their console tables regardless.
  bool Write() const {
    std::string path = JsonOutputDir() + "BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scale\": %.4f,\n",
                 Escaped(bench_name_).c_str(), BenchScale());
    std::fprintf(f,
                 "  \"env\": {\"nproc\": %u, \"cpu_model\": \"%s\", "
                 "\"build_type\": \"%s\", \"metrics\": \"%s\", "
                 "\"commit\": \"%s\"},\n",
                 std::thread::hardware_concurrency(),
                 Escaped(CpuModel()).c_str(), IMON_BUILD_TYPE,
                 kMetricsCompiledIn ? "on" : "off", IMON_GIT_COMMIT);
    std::fprintf(f, "  \"metrics\": [\n");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Entry& m = metrics_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"unit\": \"%s\", "
                   "\"value\": %.6f}%s\n",
                   Escaped(m.name).c_str(), Escaped(m.unit).c_str(), m.value,
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu metrics)\n", path.c_str(), metrics_.size());
    return true;
  }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value;
  };

#ifdef IMON_METRICS_DISABLED
  static constexpr bool kMetricsCompiledIn = false;
#else
  static constexpr bool kMetricsCompiledIn = true;
#endif

  /// The first "model name" of /proc/cpuinfo, or "unknown".
  static std::string CpuModel() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      if (line.rfind("model name", 0) != 0) continue;
      size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      size_t start = line.find_first_not_of(' ', colon + 1);
      return start == std::string::npos ? "unknown" : line.substr(start);
    }
    return "unknown";
  }

  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  std::string bench_name_;
  std::vector<Entry> metrics_;
};

}  // namespace imon::bench

#endif  // IMON_BENCH_BENCH_UTIL_H_

// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload point_select|analytic_join|embedded_mixed|wire_mixed
//             --seed N --seconds S --trace 0|1 [--smoke]
//             [--corrupt fingerprint|checksum] [--trace-out FILE]
//             [--git-commit SHA]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero when any correctness check failed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/clock.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using imon::MonotonicNanos;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload point_select|analytic_join|"
               "embedded_mixed|wire_mixed --seed N --seconds S --trace 0|1 [--smoke] "
               "[--corrupt fingerprint|checksum] [--trace-out FILE] "
               "[--git-commit SHA]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--workload") {
      if (!value(&args->workload)) return false;
    } else if (flag == "--seed") {
      if (!value(&v)) return false;
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      if (!value(&v)) return false;
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) return false;
      args->trace = v == "1";
    } else if (flag == "--corrupt") {
      if (!value(&args->corrupt)) return false;
      if (args->corrupt != "fingerprint" && args->corrupt != "checksum") {
        return false;
      }
    } else if (flag == "--trace-out") {
      if (!value(&args->trace_out)) return false;
    } else if (flag == "--git-commit") {
      if (!value(&args->git_commit)) return false;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string EnvJson(const Args& args) {
  std::ostringstream s;
  s << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu_model\": \""
    << CpuModel() << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
    << "\", \"IMON_METRICS\": "
#ifdef IMON_METRICS_DISABLED
    << "\"OFF\""
#else
    << "\"ON\""
#endif
    << ", \"git_commit\": \"" << args.git_commit << "\", \"workload\": \""
    << args.workload << "\", \"seed\": " << args.seed
    << ", \"seconds\": " << args.seconds << ", \"trace\": " << args.trace
    << ", \"smoke\": " << (args.smoke ? "true" : "false") << "}";
  return s.str();
}

/// Per-window figures of a measured phase, medianed over the windows.
struct Figures {
  double throughput_ops_s = 0;
  double read_p50_us = 0;
  double read_p99_us = 0;
  double write_p50_us = 0;
  double write_p99_us = 0;
  double query_geomean_ms = 0;
};

Figures Measure(const std::vector<const Block*>& blocks, size_t windows,
                bool normalize) {
  std::vector<double> throughput, read_p50, read_p99, write_p50, write_p99,
      geomean;
  for (const Block& win : Windows(blocks, windows, normalize)) {
    throughput.push_back(static_cast<double>(win.ops) / Seconds(win.busy_nanos));
    read_p50.push_back(win.reads.PercentileMicros(0.50));
    read_p99.push_back(win.reads.PercentileMicros(0.99));
    write_p50.push_back(win.writes.PercentileMicros(0.50));
    write_p99.push_back(win.writes.PercentileMicros(0.99));
    std::vector<double> shape_medians_ms;
    for (const auto& [name, lat] : win.shapes) {
      shape_medians_ms.push_back(lat.PercentileMicros(0.5) / 1000.0);
    }
    geomean.push_back(GeoMean(shape_medians_ms));
  }
  return {Median(throughput), Median(read_p50), Median(read_p99),
          Median(write_p50),  Median(write_p99), Median(geomean)};
}

/// The end-to-end run: repeated set-ups, the measured closed loop between
/// two host-drift probes, the workload's checks, the metrics.
void RunMeasured(Workload* w, const Args& args, Report* report) {
  const int setups = args.smoke ? 1 : 5;
  std::vector<double> setup_s;
  std::vector<double> setup_raw_s;
  for (int i = 0; i < setups; ++i) {
    if (i > 0) w->Teardown();
    double kernel_before = KernelNanos();
    int64_t t0 = MonotonicNanos();
    imon::Status s = w->Setup();
    int64_t nanos = MonotonicNanos() - t0;
    double kernel_after = KernelNanos();
    setup_raw_s.push_back(Seconds(nanos));
    setup_s.push_back(Seconds(nanos) * SpeedScale(kernel_before, kernel_after));
    if (!s.ok()) {
      report->Fail("setup: " + s.ToString());
      return;
    }
  }
  imon::Status s = w->PrepareChecks();
  if (!s.ok()) {
    report->Fail("check preparation: " + s.ToString());
    return;
  }
  report->Note("options", w->OptionsJson());

  double kernel_before = KernelNanos();
  int64_t steal_before = StealTicks();
  Phase phase;
  w->Run(args.seconds, &phase, report);
  int64_t steal_after = StealTicks();
  double kernel_after = KernelNanos();
  w->FinalChecks(report);
  report->attempted = phase.attempted;
  report->failed = phase.failed;

  std::vector<const Block*> quiet = phase.Quiet();
  std::ostringstream drift;
  drift << "{\"kernel_ms_before\": " << kernel_before / 1e6
        << ", \"kernel_ms_after\": " << kernel_after / 1e6
        << ", \"steal_ticks\": " << (steal_after - steal_before)
        << ", \"blocks\": " << phase.blocks.size()
        << ", \"quiet_blocks\": " << quiet.size() << "}";
  report->Note("drift", drift.str());

  const size_t windows = w->Windows(quiet.size());
  Figures fig = Measure(quiet, windows, true);
  Figures raw = Measure(quiet, windows, false);
  // The same figures without host-speed normalization, for comparison.
  std::ostringstream raw_line;
  raw_line << "{\"setup_s\": " << Median(setup_raw_s) << ", \"setup_s_each\": [";
  for (size_t i = 0; i < setup_raw_s.size(); ++i) {
    raw_line << (i > 0 ? ", " : "") << setup_raw_s[i];
  }
  raw_line << "]"
           << ", \"throughput_ops_s\": " << raw.throughput_ops_s
           << ", \"read_p50_us\": " << raw.read_p50_us
           << ", \"read_p99_us\": " << raw.read_p99_us
           << ", \"query_geomean_ms\": " << raw.query_geomean_ms << "}";
  report->Note("raw", raw_line.str());
  if (w->has_writes()) {
    // Write latencies are printed, not gated: the read-only workloads have
    // no writes to report them for.
    std::ostringstream writes;
    writes << "{\"write_p50_us\": " << fig.write_p50_us
           << ", \"write_p99_us\": " << fig.write_p99_us
           << ", \"raw_write_p50_us\": " << raw.write_p50_us
           << ", \"raw_write_p99_us\": " << raw.write_p99_us << "}";
    report->Note("writes", writes.str());
  }

  double overhead_pct =
      !phase.overhead_ratios.empty()
          ? 100.0 * Median(phase.overhead_ratios)
          : 100.0 * static_cast<double>(phase.statement_nanos) /
                static_cast<double>(phase.statement_nanos - phase.monitor_nanos);

  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("throughput_ops_s", fig.throughput_ops_s, "ops/s");
  report->Metric("read_p50_us", fig.read_p50_us, "us");
  report->Metric("read_p99_us", fig.read_p99_us, "us");
  report->Metric("query_geomean_ms", fig.query_geomean_ms, "ms");
  report->Metric("monitor_overhead_pct", overhead_pct, "%");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  w->Teardown();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    Usage();
    return 2;
  }
  if (args.corrupt == "checksum" && !workload->has_writes()) {
    std::fprintf(stderr, "perfbench: %s has no writes to checksum\n",
                 args.workload.c_str());
    return 2;
  }
  Report report;
  report.Note("env", EnvJson(args));
  if (args.trace) {
    RunTraced(workload.get(), args, &report);
  } else {
    RunMeasured(workload.get(), args, &report);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

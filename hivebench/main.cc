// hivebench: the repository benchmark. One run = one workload, one
// seed, one closed loop of --seconds (rounded up to whole decks, and to at
// least 200 reads) with one client thread and one Connection. See README.md
// for the workloads, metrics and span output.
//
//   hivebench --workload bi_warm|scan_cold|acid_churn --seed N --seconds S
//             --trace 0|1 [--smoke] [--out DIR]
//
// --trace 0 prints the end-to-end metrics (measured untraced); --trace 1
// adds a traced loop on a fresh set-up and prints per-layer metrics. The
// last stdout line is one JSON object: correct, attempted, failed, metrics.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "host.h"
#include "trace.h"

namespace hivebench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out = ".bench_build/out";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "hivebench: %s\nusage: hivebench --workload bi_warm|scan_cold|acid_churn "
               "--seed N --seconds S --trace 0|1 [--smoke] [--out DIR]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--out") o.out = value();
    else Usage(("unknown argument " + a).c_str());
  }
  if (o.seconds <= 0) Usage("--seconds must be positive");
  return o;
}

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  if (o.workload == "bi_warm") return MakeBiWarm(o.seed, o.smoke);
  if (o.workload == "scan_cold") return MakeScanCold(o.seed, o.smoke);
  if (o.workload == "acid_churn") return MakeAcidChurn(o.seed, o.smoke);
  Usage(("unknown workload '" + o.workload + "'").c_str());
}

/// Set-up: server start, data load, PREPAREs and the warm-up pass.
std::unique_ptr<Env> SetUp(Workload& workload, bool traced) {
  auto env = std::make_unique<Env>();
  env->mem = std::make_unique<hive::MemFileSystem>();
  hive::FileSystem* fs = env->mem.get();
  if (traced) {
    env->counting = std::make_unique<CountingFileSystem>(env->mem.get());
    fs = env->counting.get();
  }
  env->server = std::make_unique<hive::HiveServer2>(fs, workload.ServerConfig());
  env->conn = env->server->Connect(workload.name());
  workload.Load(*env);
  for (const std::string& sql : workload.WarmUp())
    Must(env->conn.Execute(sql).status(), "warm-up: " + sql.substr(0, 120));
  return env;
}

struct Loop {
  std::vector<StmtRecord> records;
  size_t reads = 0;
  double elapsed_s = 0;
  HostSample before, after;
  MetricDelta delta;
  bool exhausted = false;
};

/// Reads a timed loop runs at least: 5% of 200 leaves 10 samples beyond
/// the read p95.
constexpr size_t kMinReads = 200;

/// The closed loop: the next statement is sent when the previous one
/// returns. It stops at the first deck boundary after `seconds` have passed
/// and kMinReads reads have run, so every run holds whole decks and its
/// read p95 rests on at least 10 samples beyond it.
Loop RunLoop(Env& env, const Workload& workload, double seconds, Tracer* tracer) {
  Loop loop;
  const std::vector<Stmt>& stream = workload.stream();
  loop.records.reserve(stream.size());
  hive::obs::MetricsSnapshot before = env.server->metrics()->Snapshot();
  loop.before = SampleHost();
  const int64_t start_ns = NowNs();
  const int64_t limit_ns = static_cast<int64_t>(seconds * 1e9);
  size_t i = 0;
  for (; i < stream.size(); ++i) {
    if (i % workload.deck_size() == 0 && loop.reads >= kMinReads &&
        NowNs() - start_ns >= limit_ns)
      break;
    StmtRecord rec;
    rec.index = i;
    if (tracer) {
      tracer->RunStatement(i, stream[i], &rec);
    } else {
      const int64_t t0 = NowNs();
      auto result = env.conn.Execute(stream[i].sql);
      rec.latency_ns = NowNs() - t0;
      rec.ok = result.ok();
      if (result.ok()) {
        rec.digest = DigestRows(result->rows);
        rec.rows_affected = result->rows_affected;
      } else {
        std::fprintf(stderr, "statement %zu failed: %s\n  %s\n", i,
                     result.status().ToString().c_str(),
                     stream[i].sql.substr(0, 160).c_str());
      }
    }
    if (stream[i].is_read) ++loop.reads;
    loop.records.push_back(rec);
  }
  loop.after = SampleHost();
  loop.elapsed_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  loop.exhausted = i == stream.size();
  hive::obs::MetricsSnapshot after = env.server->metrics()->Snapshot();
  for (const auto& [name, value] : after.values) loop.delta[name] = value - before.Get(name);
  return loop;
}

double Qps(const Loop& loop) {
  return static_cast<double>(loop.records.size()) / loop.elapsed_s;
}

struct Check {
  int64_t failed = 0;
  bool mechanism_ok = false;
  std::string sizes;
};

/// Result verification and the mechanism check, after the timed loop.
Check Verify(Env& env, Workload& workload, const Loop& loop) {
  Check c;
  for (const StmtRecord& r : loop.records)
    if (!r.ok) ++c.failed;
  c.failed += workload.Verify(env, loop.records);
  c.mechanism_ok = workload.CheckMechanism(env, loop.records, loop.delta, &c.sizes);
  if (loop.exhausted) {
    std::fprintf(stderr, "hivebench: the statement stream ran out before the loop could stop\n");
    c.mechanism_ok = false;
  }
  return c;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, double>& values,
                        const std::map<std::string, std::string>& units) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Num(value) + ", \"unit\": \"" +
           units.at(name) + "\"}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(opt);
  std::error_code ec;
  std::filesystem::create_directories(opt.out, ec);
  const std::string stem = opt.out + "/" + workload->name() + "-seed" +
                           std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0");
  std::printf("hivebench: workload=%s seed=%llu seconds=%g trace=%d smoke=%d "
              "statements generated=%zu\n",
              workload->name().c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? 1 : 0, workload->stream().size());

  const HostSample run_start = SampleHost();
  // Set-up repeats and reports its median; only the last set-up is kept,
  // and each earlier one is torn down before the next starts.
  const int setups = opt.smoke || opt.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < setups; ++i) {
    env.reset();
    const int64_t t0 = NowNs();
    env = SetUp(*workload, /*traced=*/false);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  Loop loop = RunLoop(*env, *workload, opt.seconds, nullptr);
  Check check = Verify(*env, *workload, loop);

  const std::vector<std::string> names = workload->TemplateNames();
  std::vector<std::vector<double>> by_template(names.size());
  std::vector<double> read_ms, write_ms;
  for (const StmtRecord& r : loop.records) {
    const Stmt& stmt = workload->stream()[r.index];
    const double ms = static_cast<double>(r.latency_ns) / 1e6;
    by_template[stmt.tmpl].push_back(ms);
    (stmt.is_read ? read_ms : write_ms).push_back(ms);
  }
  const double n = static_cast<double>(loop.records.size());
  std::map<std::string, double> e2e = {
      {"setup_s", Median(setup_s)},
      {"qps", Qps(loop)},
      {"cpu_ms_per_stmt", (loop.after.user_s + loop.after.sys_s - loop.before.user_s -
                           loop.before.sys_s) * 1e3 / n},
      {"peak_rss_mb", loop.after.peak_rss_mb},
  };
  std::map<std::string, std::string> e2e_units = {
      {"setup_s", "s"}, {"qps", "1/s"}, {"cpu_ms_per_stmt", "ms"}, {"peak_rss_mb", "MB"}};
  auto add_latency = [&](const std::string& kind, const std::vector<double>& ms) {
    if (ms.empty()) return;  // DML latency exists only in acid_churn
    for (int p : {50, 95}) {
      const std::string name = kind + "_p" + std::to_string(p) + "_ms";
      e2e[name] = Percentile(ms, p);
      e2e_units[name] = "ms";
    }
  };
  add_latency("read", read_ms);
  add_latency("write", write_ms);
  // Samples above the interpolated 95th percentile (see Percentile).
  auto beyond_p95 = [](size_t count) {
    if (count == 0) return size_t{0};
    return count - 1 - static_cast<size_t>(0.95 * static_cast<double>(count - 1));
  };
  std::string templates;
  for (size_t t = 0; t < names.size(); ++t)
    templates += std::string(templates.empty() ? "" : ", ") + "\"" + names[t] +
                 "\": {\"n\": " + std::to_string(by_template[t].size()) +
                 ", \"p50_ms\": " + Num(Percentile(by_template[t], 50)) + "}";
  templates = "{" + templates + "}";
  std::printf("templates: %s\n", templates.c_str());
  std::string setups_list;
  for (double v : setup_s) setups_list += (setups_list.empty() ? "" : ", ") + Num(v);
  setups_list = "[" + setups_list + "]";
  std::printf("setup_s samples: %s\n", setups_list.c_str());
  std::printf("samples: %zu statements (%zu decks) in %.3f s; reads %zu (%zu beyond p95); "
              "writes %zu (%zu beyond p95)\n",
              loop.records.size(), loop.records.size() / workload->deck_size(),
              loop.elapsed_s, read_ms.size(), beyond_p95(read_ms.size()), write_ms.size(),
              beyond_p95(write_ms.size()));
  std::printf("mechanism: %s — %s\n", check.mechanism_ok ? "ok" : "FAILED",
              check.sizes.c_str());
  const std::string host_loop = HostDeltaJson(loop.before, loop.after);
  std::printf("host (timed loop): %s\n", host_loop.c_str());
  std::printf("end-to-end: %s\n", MetricsJson(e2e, e2e_units).c_str());

  int64_t attempted = static_cast<int64_t>(loop.records.size());
  int64_t failed = check.failed;
  bool correct = check.mechanism_ok;
  std::map<std::string, double> layers;
  std::map<std::string, std::string> layer_units;
  std::string host_traced;
  if (opt.trace) {
    // The traced loop runs the same stream on a fresh set-up whose server
    // was handed the counting file system.
    env.reset();
    env = SetUp(*workload, /*traced=*/true);
    Tracer tracer(env.get(), workload.get());
    Loop traced = RunLoop(*env, *workload, opt.seconds, &tracer);
    Check traced_check = Verify(*env, *workload, traced);
    attempted += static_cast<int64_t>(traced.records.size());
    failed += traced_check.failed;
    correct = correct && traced_check.mechanism_ok;
    layers = tracer.Metrics(&layer_units);
    std::map<std::string, double> probes = RunProbes(*env, *workload, &layer_units);
    layers.insert(probes.begin(), probes.end());
    layers["obs.trace_overhead_pct"] = (1 - Qps(traced) / e2e["qps"]) * 100;
    layer_units["obs.trace_overhead_pct"] = "%";
    host_traced = HostDeltaJson(traced.before, traced.after);
    std::printf("host (traced loop): %s\n", host_traced.c_str());
    std::printf("per-layer: %s\n", MetricsJson(layers, layer_units).c_str());
    if (!tracer.WriteSpans(stem + "-spans.jsonl"))
      std::fprintf(stderr, "hivebench: could not write %s-spans.jsonl\n", stem.c_str());
    else
      std::printf("spans: %s-spans.jsonl\n", stem.c_str());
  }
  env.reset();
  const std::string host_run = HostDeltaJson(run_start, SampleHost());
  std::printf("host (whole run): %s\n", host_run.c_str());
  correct = correct && failed == 0;

  const std::string metrics =
      opt.trace ? MetricsJson(layers, layer_units) : MetricsJson(e2e, e2e_units);
  {
    std::ofstream report(stem + ".json");
    report << "{\"workload\": \"" << workload->name() << "\", \"seed\": " << opt.seed
           << ", \"seconds\": " << Num(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
           << ", \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"setup_s_samples\": " << setups_list
           << ", \"reads\": " << read_ms.size() << ", \"writes\": " << write_ms.size()
           << ", \"templates\": " << templates
           << ", \"mechanism\": \"" << check.sizes << "\""
           << ", \"host_loop\": " << host_loop << ", \"host_run\": " << host_run
           << (host_traced.empty() ? "" : ", \"host_traced_loop\": " + host_traced)
           << ", \"end_to_end\": " << MetricsJson(e2e, e2e_units)
           << ", \"per_layer\": " << MetricsJson(layers, layer_units) << "}\n";
  }
  std::printf("report: %s.json\n", stem.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace hivebench

int main(int argc, char** argv) { return hivebench::Main(argc, argv); }

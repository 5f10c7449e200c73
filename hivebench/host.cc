#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace hivebench {

namespace {

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string label;
  // cpu user nice system idle iowait irq softirq steal ...
  uint64_t fields[8] = {};
  if (!(in >> label) || label != "cpu") return 0;
  for (uint64_t& f : fields)
    if (!(in >> f)) return 0;
  long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? static_cast<double>(fields[7]) / static_cast<double>(ticks) : 0;
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

double StealStretch(const HostSample& a, const HostSample& b) {
  const double cpu = b.user_s + b.sys_s - a.user_s - a.sys_s;
  const double steal = b.steal_s - a.steal_s;
  return cpu > 0 && steal > 0 ? 1 + steal / cpu : 1;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

HostSample SampleHost() {
  HostSample s;
  s.wall_s = static_cast<double>(NowNs()) / 1e9;
  s.steal_s = StealSeconds();
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    s.user_s = Seconds(ru.ru_utime);
    s.sys_s = Seconds(ru.ru_stime);
    s.involuntary_switches = ru.ru_nivcsw;
    s.voluntary_switches = ru.ru_nvcsw;
    s.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
  }
  return s;
}

std::string HostDeltaJson(const HostSample& a, const HostSample& b) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"wall_s\": %.4f, \"steal_s\": %.3f, \"user_s\": %.4f, "
                "\"sys_s\": %.4f, \"steal_stretch\": %.4f, \"involuntary_switches\": %lld, "
                "\"voluntary_switches\": %lld, \"nproc\": %ld, "
                "\"hardware_concurrency\": %u}",
                b.wall_s - a.wall_s, b.steal_s - a.steal_s, b.user_s - a.user_s,
                b.sys_s - a.sys_s, StealStretch(a, b),
                static_cast<long long>(b.involuntary_switches - a.involuntary_switches),
                static_cast<long long>(b.voluntary_switches - a.voluntary_switches),
                sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency());
  return buf;
}

}  // namespace hivebench

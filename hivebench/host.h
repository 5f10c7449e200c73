#ifndef HIVEBENCH_HOST_H_
#define HIVEBENCH_HOST_H_

// Host interference recorded beside every run's metrics, so a spread
// between runs can be traced to the host (hypervisor steal, preemption) or
// to the program (its own CPU time).

#include <cstdint>
#include <string>

namespace hivebench {

struct HostSample {
  double wall_s = 0;
  /// CPU time the hypervisor gave to other guests, summed over every CPU
  /// (the `steal` column of /proc/stat's aggregate line).
  double steal_s = 0;
  /// This process's user and system CPU time (getrusage).
  double user_s = 0;
  double sys_s = 0;
  int64_t involuntary_switches = 0;
  int64_t voluntary_switches = 0;
  /// Peak resident set so far, in MB.
  double peak_rss_mb = 0;
};

HostSample SampleHost();

/// Fields of `b` minus `a` as a JSON object, plus the CPU count and
/// `steal_stretch`: 1 plus the CPU time stolen from the guest per CPU-second
/// this process ran, a rough gauge of how much other guests slowed the
/// interval. It is reported beside the metrics and never applied to them.
std::string HostDeltaJson(const HostSample& a, const HostSample& b);

/// Nanoseconds on a monotonic clock.
int64_t NowNs();

}  // namespace hivebench

#endif  // HIVEBENCH_HOST_H_

// Process self-statistics read from /proc and the scheduler. Header-only:
// the one consumer-hot call (RSS for the vm.rss_bytes gauge) is a single read
// of a tiny procfs file, no caching.
#ifndef SRC_UTIL_PROC_STATS_H_
#define SRC_UTIL_PROC_STATS_H_

#include <sched.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <thread>

namespace rolp {

// Resident-set size of the current process in bytes (field 2 of
// /proc/self/statm, in pages). Returns 0 when /proc is unavailable.
inline uint64_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "re");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long vm_pages = 0;
  unsigned long long rss_pages = 0;
  int n = std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages);
  std::fclose(f);
  if (n != 2) {
    return 0;
  }
  return static_cast<uint64_t>(rss_pages) * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// CPUs the calling thread may run on (its sched_getaffinity mask), which is
// what a pinned or cpuset-limited process really gets — unlike
// std::thread::hardware_concurrency(), which counts the machine's CPUs.
// Falls back to hardware_concurrency() when the mask is unavailable.
inline unsigned AllowedCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) {
      return static_cast<unsigned>(n);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace rolp

#endif  // SRC_UTIL_PROC_STATS_H_

// Result printing shared by the two benchmark binaries: one info line, then
// the result object as the last line of standard output.

#ifndef DPSSBENCH_REPORT_H_
#define DPSSBENCH_REPORT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "workloads.h"

namespace dpssbench {

inline std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

// The build this binary came from, for the run's stamp.
inline std::string BuildStamp() {
#ifdef DPSSBENCH_BUILD_TYPE
  const char* build_type = DPSSBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  return std::string("{\"compiler\": \"") +
#if defined(__clang__)
         "clang " +
#elif defined(__GNUC__)
         "gcc " +
#endif
         __VERSION__ + "\", \"build_type\": \"" + build_type + "\"}";
}

inline void PrintResult(const std::string& workload, uint64_t seed,
                        const RunResult& r, const std::vector<Metric>& metrics) {
  std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"build\": %s, "
              "\"counts\": %s}}\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              BuildStamp().c_str(), MetricsJson(r.info).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
}

}  // namespace dpssbench

#endif  // DPSSBENCH_REPORT_H_

// psb_hostbench: run one host-time benchmark workload.
//
//   psb_hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--out DIR]
//   psb_hostbench --list
//
// Prints `workload metric value unit [n=samples]` lines, then one JSON object
// {"correct", "attempted", "failed", "metrics"} as the last line. Exits 0 when
// every check passed, 1 on a failed check, 2 on bad usage.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

int usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: psb_hostbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--out DIR] | --list\n",
               why.c_str());
  return 2;
}

bool parse_number(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string_view(PSB_HOSTBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "error: build type is '%s'; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PSB_HOSTBENCH_BUILD_TYPE);
    return 2;
  }

  hostbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const auto& [name, fn] : hostbench::workloads()) std::printf("%s\n", name.c_str());
      return 0;
    }
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    double num = 0;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--out") {
      o.out_dir = value;
    } else if (!parse_number(value, num)) {
      return usage("bad value '" + value + "' for " + arg);
    } else if (arg == "--seed" && num >= 0 && num < 1e18 && num == std::floor(num)) {
      o.seed = static_cast<std::uint64_t>(num);
    } else if (arg == "--seconds" && num > 0 && num <= 3600) {
      o.seconds = num;
    } else if (arg == "--trace" && (num == 0 || num == 1)) {
      o.trace = num == 1;
    } else {
      return usage("bad option " + arg + " " + value);
    }
  }

  for (const auto& [name, run] : hostbench::workloads()) {
    if (name != o.workload) continue;
    try {
      hostbench::Context ctx(o);
      const std::string traces = run(ctx);
      hostbench::finish(ctx, traces);
      return ctx.out.correct() ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: workload %s: %s\n", name.c_str(), e.what());
      return 1;
    }
  }
  return usage(o.workload.empty() ? "no --workload given" : "unknown workload " + o.workload);
}

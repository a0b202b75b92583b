// perfbench_measure — the benchmark's measuring process (run.py builds it
// and runs it in a per-run scratch directory):
//
//   perfbench_measure --workload <join_cold|serve_mixed>
//       --seed N --seconds S --trace 0|1 --tmp DIR --trace-dir DIR
//       --serverd PATH [--source ID] [--perturb-reference]
//
// The last line of stdout is the result object; the line before it holds
// the run's facts and the sample count behind every quantile. Exit codes:
// 0 ok, 2 the benchmark could not run, 3 a wrong answer.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench_measure: %s\nusage: perfbench_measure --workload W "
               "--seed N --seconds S --trace 0|1 --tmp DIR --trace-dir DIR "
               "--serverd PATH [--source ID] [--perturb-reference]\n",
               msg.c_str());
  std::exit(2);
}

uint64_t ParseU64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') Usage("bad " + flag + " '" + v + "'");
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb-reference") {
      args.perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = ParseU64(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseU64(flag, v));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--tmp") {
      args.tmp_dir = v;
    } else if (flag == "--trace-dir") {
      args.trace_dir = v;
    } else if (flag == "--serverd") {
      args.serverd = v;
    } else if (flag == "--source") {
      args.source_id = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || args.seconds < 1 || args.tmp_dir.empty() ||
      args.trace_dir.empty() || args.serverd.empty()) {
    Usage("--seed, --seconds >= 1, --tmp, --trace-dir and --serverd are required");
  }

  if (args.workload == "join_cold") {
    perfbench::RunJoinCold(args);
  } else if (args.workload == "serve_mixed") {
    perfbench::RunServeMixed(args);
  } else {
    Usage("unknown workload '" + args.workload + "'");
  }
  return 0;
}

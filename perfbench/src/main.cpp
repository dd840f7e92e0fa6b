// Repository benchmark binary. Normally started through run.py, which
// builds this binary and trains the model cache first:
//
//   perfbench --workload <serve_sparse|serve_personalize|fleet_dense>
//             --seed <n> --seconds <s> --trace <0|1>
//             --cache-dir <dir> --out-dir <dir>
//   perfbench --prepare --cache-dir <dir>      train the model cache
//   perfbench --self-test --cache-dir <dir> --out-dir <dir>
//
// A timed run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics. The last line of stdout is
// the JSON result; the line before it is the host context.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --cache-dir <dir> --out-dir <dir>\n"
               "       perfbench --prepare --cache-dir <dir>\n"
               "       perfbench --self-test --cache-dir <dir> --out-dir <dir>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--prepare") {
      o.prepare = true;
      continue;
    }
    if (arg == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--cache-dir") {
        o.cache_dir = value;
      } else if (arg == "--out-dir") {
        o.out_dir = value;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (o.cache_dir.empty()) usage("--cache-dir is required");
  if (!o.prepare && o.out_dir.empty()) usage("--out-dir is required");
  if (!o.prepare && !o.self_test && o.workload.empty()) {
    usage("--workload is required");
  }
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    if (options.prepare) {
      // Loading the experiment trains and caches every model it lacks.
      const origin::sim::Experiment experiment(
          perfbench::experiment_config(options.cache_dir, perfbench::kSlots));
      std::fprintf(stderr, "perfbench: model cache ready in %s\n",
                   options.cache_dir.c_str());
      return 0;
    }
    std::filesystem::create_directories(options.out_dir);
    if (options.self_test) {
      const int problems = perfbench::self_test_serve(options, false) +
                           perfbench::self_test_serve(options, true) +
                           perfbench::self_test_fleet(options);
      std::fprintf(stderr, "[self-test] %s (%d problem%s)\n",
                   problems == 0 ? "passed" : "FAILED", problems,
                   problems == 1 ? "" : "s");
      return problems == 0 ? 0 : 1;
    }
    perfbench::Result result;
    if (options.workload == "serve_sparse") {
      result = options.trace ? perfbench::traced_serve(options, false)
                             : perfbench::timed_serve(options, false);
    } else if (options.workload == "serve_personalize") {
      result = options.trace ? perfbench::traced_serve(options, true)
                             : perfbench::timed_serve(options, true);
    } else if (options.workload == "fleet_dense") {
      result = options.trace ? perfbench::traced_fleet(options)
                             : perfbench::timed_fleet(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
    std::printf("%s\n%s\n", perfbench::context_json(result).c_str(),
                perfbench::result_json(result).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}

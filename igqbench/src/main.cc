// igqbench — the repository benchmark (see igqbench/NOTES.md).
//
//   igqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>]
//
// Prints one line per note, then, as the last line, the result JSON:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Exits 1 on a wrong answer and 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "igqbench: %s\nusage: igqbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  igqbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  bool known = false;
  for (const std::string& name : igqbench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known) return Usage("unknown workload");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  std::filesystem::create_directories(config.out_dir);

  const igqbench::RunReport report = igqbench::RunWorkload(config);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const igqbench::Metric& metric : report.metrics) {
    std::printf("%-32s %14.3f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n", igqbench::ResultJson(report.correct, report.attempted,
                                           report.failed, report.metrics)
                          .c_str());
  return report.correct ? 0 : 1;
}

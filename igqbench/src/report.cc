#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace igqbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= kTailBeyond) {
    tail.value = values.back();
    tail.percentile = 100;
    return tail;
  }
  const size_t rank = n - kTailBeyond;  // 1-based rank of the tail sample
  tail.value = values[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond = n - rank;
  return tail;
}

std::string DescribeTail(const std::string& name, const Tail& tail) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: p%.2f of %zu samples (%zu beyond) = %.1f us", name.c_str(),
                tail.percentile, tail.samples, tail.beyond, tail.value);
  return line;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char number[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace igqbench

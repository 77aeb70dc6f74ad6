// Summary statistics and the result line the benchmark prints.
#ifndef IGQBENCH_REPORT_H_
#define IGQBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace igqbench {

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// The tail a latency distribution can support: the highest percentile
/// that still has at least `kTailBeyond` samples above it in the sorted
/// order. With n samples that is the (n - kTailBeyond)-th smallest, i.e. the
/// 100 * (n - kTailBeyond) / n percentile — so the reported tail moves with
/// the sample count instead of sitting on a fixed p99 that may fall between
/// two groups of requests.
inline constexpr size_t kTailBeyond = 10;

struct Tail {
  double value = 0;       // the sample at that rank
  double percentile = 0;  // 100 * rank / n
  size_t samples = 0;     // n
  size_t beyond = 0;      // samples ranked above it (kTailBeyond when n > it)
};

/// Tail of `values`. With kTailBeyond or fewer samples no rank has enough
/// samples beyond it; the maximum is returned with `beyond` = 0.
Tail TailOf(std::vector<double> values);

/// "name: p99.86 of 7012 samples (10 beyond) = 1234.5 us" — the line that
/// says which percentile a reported tail is.
std::string DescribeTail(const std::string& name, const Tail& tail);

/// One named metric with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// The final output line: {"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {name: {"value": v, "unit": u}, ...}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace igqbench

#endif  // IGQBENCH_REPORT_H_

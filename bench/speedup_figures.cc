#include "bench/speedup_figures.h"

#include <cstdio>
#include <map>

#include "common/table_printer.h"
#include "methods/registry.h"

namespace igq {
namespace bench {
namespace {

// Runs one (method, workload) cell and returns {baseline_metric,
// igq_metric}. For kIsoTests a single iGQ-enabled run suffices: the
// baseline's test count equals the sum of pre-pruning candidate-set sizes.
// For kTime two separate engine runs are timed.
struct CellResult {
  double baseline = 0;
  double igq = 0;
  // Exact-hit fast-path usage in the iGQ run: how many post-warm-up
  // queries were answered by canonical-key lookup, and their mean
  // end-to-end latency in microseconds.
  uint64_t exact_hits = 0;
  double exact_hit_mean_micros = 0;
  // The timed runs (kTime only): their stage sums say where a cell's time
  // goes.
  RunResult baseline_run;
  RunResult igq_run;
};

void FillExactHitStats(const RunResult& run, CellResult* cell) {
  cell->exact_hits = run.exact_hits;
  cell->exact_hit_mean_micros =
      run.exact_hits == 0 ? 0.0
                          : static_cast<double>(run.exact_hit_micros) /
                                static_cast<double>(run.exact_hits);
}

CellResult RunCell(const GraphDatabase& db, Method* method,
                   size_t verify_threads,
                   const std::vector<WorkloadQuery>& workload, size_t warmup,
                   Metric metric, const IgqOptions& igq_base) {
  CellResult cell;
  IgqOptions igq_options = igq_base;
  igq_options.enabled = true;
  igq_options.verify_threads = verify_threads;

  if (metric == Metric::kIsoTests) {
    QueryEngine engine(db, method, igq_options);
    const RunResult run = RunWorkload(engine, workload, warmup);
    cell.baseline = static_cast<double>(run.baseline_tests);
    cell.igq = static_cast<double>(run.iso_tests);
    FillExactHitStats(run, &cell);
    return cell;
  }
  IgqOptions baseline_options = igq_options;
  baseline_options.enabled = false;
  {
    QueryEngine engine(db, method, baseline_options);
    cell.baseline_run = RunWorkload(engine, workload, warmup);
    cell.baseline = static_cast<double>(cell.baseline_run.total_micros);
  }
  {
    QueryEngine engine(db, method, igq_options);
    cell.igq_run = RunWorkload(engine, workload, warmup);
    cell.igq = static_cast<double>(cell.igq_run.total_micros);
    FillExactHitStats(cell.igq_run, &cell);
  }
  return cell;
}

const char* MetricName(Metric metric) {
  return metric == Metric::kIsoTests ? "number of subgraph isomorphism tests"
                                     : "query processing time";
}

}  // namespace

void RunWorkloadsByMethodsFigure(const std::string& figure_name,
                                 const std::string& dataset_name,
                                 Metric metric, const Flags& flags,
                                 size_t default_queries) {
  const double scale = flags.GetDouble("scale", 1.0);
  const size_t num_queries = flags.GetSize("queries", default_queries);
  const uint64_t seed = flags.GetSize("seed", 2016);
  const double alpha = flags.GetDouble("alpha", 1.4);
  IgqOptions igq_base;
  igq_base.cache_capacity = flags.GetSize("cache", 500);
  igq_base.window_size = flags.GetSize("window", 100);

  PrintHeader(figure_name,
              std::string("Speedup (baseline / iGQ) in ") + MetricName(metric) +
                  " on " + dataset_name + "; 4 workloads x 4 method variants; "
                  "C=" + std::to_string(igq_base.cache_capacity) +
                  ", W=" + std::to_string(igq_base.window_size) +
                  ". Paper shape: speedups > 1 everywhere, larger with skew.");

  const GraphDatabase db = BuildDataset(dataset_name, scale, seed);

  TablePrinter table;
  table.SetHeader({"workload", "GGSX", "Grapes", "Grapes(6)", "CT-Index"});
  BenchJson json(flags, figure_name);
  std::vector<std::unique_ptr<Method>> methods;
  const auto method_names = MethodRegistry::Known(QueryDirection::kSubgraph);
  for (const std::string& name : method_names) {
    methods.push_back(BuildMethod(name, db));
  }
  for (const std::string& workload_name : WorkloadNames()) {
    const WorkloadSpec spec =
        MakeWorkloadSpec(workload_name, alpha, num_queries, seed + 101);
    const auto workload = GenerateWorkload(db.graphs, spec);
    std::vector<std::string> row{workload_name};
    for (size_t m = 0; m < methods.size(); ++m) {
      const CellResult cell =
          RunCell(db, methods[m].get(),
                  MethodRegistry::Defaults(QueryDirection::kSubgraph,
                                           method_names[m])
                      .verify_threads,
                  workload, igq_base.window_size, metric, igq_base);
      row.push_back(TablePrinter::Num(Speedup(cell.baseline, cell.igq), 2) +
                    "x");
      std::printf("[cell] %s/%s: baseline=%.0f igq=%.0f\n",
                  workload_name.c_str(), method_names[m].c_str(),
                  cell.baseline, cell.igq);
      json.AddRow(
          {{"dataset", dataset_name},
           {"workload", workload_name},
           {"method", method_names[m]},
           {"metric", metric == Metric::kIsoTests ? "iso_tests" : "micros"},
           {"baseline", TablePrinter::Num(cell.baseline, 0)},
           {"igq", TablePrinter::Num(cell.igq, 0)},
           {"speedup",
            TablePrinter::Num(Speedup(cell.baseline, cell.igq), 4)}});
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

void RunZipfSweepFigure(const std::string& figure_name, Metric metric,
                        const Flags& flags) {
  const double scale = flags.GetDouble("scale", 1.0);
  const size_t num_queries = flags.GetSize("queries", 1200);
  const uint64_t seed = flags.GetSize("seed", 2016);
  IgqOptions igq_base;
  igq_base.cache_capacity = flags.GetSize("cache", 500);
  igq_base.window_size = flags.GetSize("window", 100);

  PrintHeader(figure_name,
              std::string("Speedup in ") + MetricName(metric) +
                  " for PDBS/Grapes(6) vs Zipf skew α. Paper shape: "
                  "monotone increase with α.");

  const GraphDatabase db = BuildDataset("pdbs", scale, seed);
  auto method = BuildMethod("grapes6", db);

  TablePrinter table;
  table.SetHeader({"workload", "α=1.1", "α=1.4", "α=2.0"});
  BenchJson json(flags, figure_name);
  for (const std::string& workload_name :
       {"uni-zipf", "zipf-uni", "zipf-zipf"}) {
    std::vector<std::string> row{workload_name};
    for (double alpha : {1.1, 1.4, 2.0}) {
      const WorkloadSpec spec =
          MakeWorkloadSpec(workload_name, alpha, num_queries, seed + 101);
      const auto workload = GenerateWorkload(db.graphs, spec);
      const CellResult cell = RunCell(db, method.get(), 6, workload,
                                      igq_base.window_size, metric, igq_base);
      row.push_back(TablePrinter::Num(Speedup(cell.baseline, cell.igq), 2) +
                    "x");
      std::printf(
          "[cell] %s/α=%.1f: baseline=%.0f igq=%.0f exact_hits=%llu "
          "(mean %.1fus)\n",
          workload_name.c_str(), alpha, cell.baseline, cell.igq,
          static_cast<unsigned long long>(cell.exact_hits),
          cell.exact_hit_mean_micros);
      std::vector<std::pair<std::string, std::string>> fields = {
          {"dataset", "pdbs"},
          {"workload", workload_name},
          {"method", "grapes6"},
          {"alpha", TablePrinter::Num(alpha, 1)},
          {"metric", metric == Metric::kIsoTests ? "iso_tests" : "micros"},
          {"baseline", TablePrinter::Num(cell.baseline, 0)},
          {"igq", TablePrinter::Num(cell.igq, 0)},
          {"speedup", TablePrinter::Num(Speedup(cell.baseline, cell.igq), 4)},
          {"exact_hits", std::to_string(cell.exact_hits)},
          {"exact_hit_mean_micros",
           TablePrinter::Num(cell.exact_hit_mean_micros, 2)}};
      if (metric == Metric::kTime) {
        // Stage sums (µs over the measured queries). What the stages leave
        // of the total is canonicalization, preparation, answer assembly
        // and the cache insert.
        const RunResult& base = cell.baseline_run;
        const RunResult& igq = cell.igq_run;
        std::printf(
            "[stages] %s/α=%.1f: baseline filter=%lld verify=%lld | igq "
            "filter=%lld probe+prune=%lld verify=%lld maintenance=%lld\n",
            workload_name.c_str(), alpha,
            static_cast<long long>(base.filter_micros),
            static_cast<long long>(base.verify_micros),
            static_cast<long long>(igq.filter_micros),
            static_cast<long long>(igq.probe_micros),
            static_cast<long long>(igq.verify_micros),
            static_cast<long long>(igq.maintenance_micros));
        fields.insert(
            fields.end(),
            {{"baseline_filter_micros", std::to_string(base.filter_micros)},
             {"baseline_verify_micros", std::to_string(base.verify_micros)},
             {"igq_filter_micros", std::to_string(igq.filter_micros)},
             {"igq_probe_micros", std::to_string(igq.probe_micros)},
             {"igq_verify_micros", std::to_string(igq.verify_micros)},
             {"igq_maintenance_micros",
              std::to_string(igq.maintenance_micros)}});
      }
      json.AddRow(std::move(fields));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

void RunQueryGroupFigure(const std::string& figure_name,
                         const std::string& dataset_name, double alpha,
                         Metric metric, const Flags& flags) {
  const double scale = flags.GetDouble("scale", 1.0);
  const size_t num_queries = flags.GetSize("queries", 400);
  const uint64_t seed = flags.GetSize("seed", 2016);
  const size_t window = flags.GetSize("window", 20);

  PrintHeader(figure_name,
              std::string("Speedup in ") + MetricName(metric) + " on " +
                  dataset_name + "/Grapes(6)/zipf-zipf(α=" +
                  TablePrinter::Num(alpha, 1) +
                  ") per query-size group and cache size C. Paper shape: "
                  "whole-workload speedup rises with C; per-group speedups "
                  "may fluctuate (groups share the cache).");

  const GraphDatabase db = BuildDataset(dataset_name, scale, seed);
  auto method = BuildMethod("grapes6", db);
  const WorkloadSpec spec =
      MakeWorkloadSpec("zipf-zipf", alpha, num_queries, seed + 101);
  const auto workload = GenerateWorkload(db.graphs, spec);

  TablePrinter table;
  table.SetHeader({"C", "Q4", "Q8", "Q12", "Q16", "Q20", "whole workload"});
  for (size_t capacity : {100u, 200u, 300u}) {
    IgqOptions igq_options;
    igq_options.cache_capacity = capacity;
    igq_options.window_size = window;
    igq_options.verify_threads = 6;

    // Per-group metrics need per-query records from both runs.
    IgqOptions baseline_options = igq_options;
    baseline_options.enabled = false;
    RunResult baseline_run;
    {
      QueryEngine engine(db, method.get(), baseline_options);
      baseline_run = RunWorkload(engine, workload, window);
    }
    RunResult igq_run;
    {
      QueryEngine engine(db, method.get(), igq_options);
      igq_run = RunWorkload(engine, workload, window);
    }

    std::map<size_t, double> baseline_by_group, igq_by_group;
    double baseline_total = 0, igq_total = 0;
    for (size_t i = 0; i < igq_run.per_query.size(); ++i) {
      const auto& base_record = baseline_run.per_query[i];
      const auto& igq_record = igq_run.per_query[i];
      const double base_value =
          metric == Metric::kIsoTests
              ? static_cast<double>(base_record.initial_candidates)
              : static_cast<double>(base_record.micros);
      const double igq_value =
          metric == Metric::kIsoTests
              ? static_cast<double>(igq_record.iso_tests)
              : static_cast<double>(igq_record.micros);
      baseline_by_group[igq_record.size_class] += base_value;
      igq_by_group[igq_record.size_class] += igq_value;
      baseline_total += base_value;
      igq_total += igq_value;
    }
    std::vector<std::string> row{"C=" + std::to_string(capacity)};
    for (size_t group : {4u, 8u, 12u, 16u, 20u}) {
      row.push_back(
          TablePrinter::Num(
              Speedup(baseline_by_group[group], igq_by_group[group]), 2) +
          "x");
    }
    row.push_back(TablePrinter::Num(Speedup(baseline_total, igq_total), 2) +
                  "x");
    table.AddRow(std::move(row));
  }
  table.Print();
}

}  // namespace bench
}  // namespace igq

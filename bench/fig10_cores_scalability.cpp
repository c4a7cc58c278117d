// Fig. 10: distribution of 1-NN query times by core count (the paper's
// box plots, printed as min / q1 / median / q3 / max over all datasets ×
// queries, log-friendly).
//
// Paper shape: SOFA's boxes sit lowest at every core count; MESSI and
// SOFA show high cross-dataset variance, FAISS and UCR are tightly
// clustered; every method improves with cores.

#include <cstdio>

#include "bench_common.h"
#include "flat/index_flat_l2.h"
#include "scan/ucr_scan.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace sofa;
  using namespace sofa::bench;
  Flags flags(argc, argv);
  const BenchOptions options = ParseBenchOptions(flags);
  ExitOnHelpOrUnreadFlags(flags, "fig10_cores_scalability");
  PrintHeader("Fig. 10 — query-time distribution by cores", options);

  TablePrinter table({"Cores", "Method", "min", "q1", "median", "q3",
                      "max (ms)"});
  for (const std::size_t threads : options.thread_counts) {
    ThreadPool pool(threads);
    std::vector<double> per_method_ms[4];  // MESSI, SOFA, UCR, FAISS
    for (const std::string& name : options.dataset_names) {
      const LabeledDataset ds = MakeBenchDataset(name, options, &pool);
      const SofaIndex sofa = BuildSofa(ds.data, options, &pool, threads);
      const MessiIndex messi = BuildMessi(ds.data, options, &pool, threads);
      const scan::UcrScan scanner(&ds.data, &pool);
      const flat::IndexFlatL2 faiss_index(&ds.data, &pool);
      for (const double ms : TimeQueries(ds.queries, [&](const float* q) {
             (void)messi.tree->Search1Nn(q);
           })) {
        per_method_ms[0].push_back(ms);
      }
      for (const double ms : TimeQueries(ds.queries, [&](const float* q) {
             (void)sofa.tree->Search1Nn(q);
           })) {
        per_method_ms[1].push_back(ms);
      }
      for (const double ms : TimeQueries(ds.queries, [&](const float* q) {
             (void)scanner.Search1Nn(q);
           })) {
        per_method_ms[2].push_back(ms);
      }
      std::size_t q = 0;
      while (q < ds.queries.size()) {
        Dataset batch(ds.queries.length());
        const std::size_t end = std::min(ds.queries.size(), q + threads);
        for (; q < end; ++q) {
          batch.Append(ds.queries.row(q));
        }
        WallTimer timer;
        (void)faiss_index.SearchBatch(batch, 1);
        const double per_query =
            timer.Millis() / static_cast<double>(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          per_method_ms[3].push_back(per_query);
        }
      }
    }
    const char* names[4] = {"MESSI", "SOFA", "UCR SUITE", "FAISS"};
    for (int m = 0; m < 4; ++m) {
      const auto& ms = per_method_ms[m];
      table.AddRow({std::to_string(threads), names[m],
                    FormatDouble(stats::Min(ms), 2),
                    FormatDouble(stats::Percentile(ms, 25), 2),
                    FormatDouble(stats::Median(ms), 2),
                    FormatDouble(stats::Percentile(ms, 75), 2),
                    FormatDouble(stats::Max(ms), 2)});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\npaper shape: SOFA lowest medians; MESSI/SOFA spread widely across "
      "datasets, FAISS/UCR tight.\n");
  return 0;
}

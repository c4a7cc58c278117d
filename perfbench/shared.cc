// Pieces every workload shares: the end-to-end report, and the kernel and
// brute-force-reference rungs of the ladder.

#include <algorithm>
#include <limits>
#include <vector>

#include "core/distance.h"
#include "flat/index_flat_l2.h"
#include "index/node.h"
#include "quant/lbd.h"
#include "quant/rowq.h"
#include "workloads.h"

namespace sofa {
namespace perfbench {
namespace {

// Queries each kernel rung sweeps the whole collection with.
constexpr std::size_t kKernelQueries = 5;

void CollectLeaves(const index::Node* node,
                   std::vector<const index::Node*>* leaves) {
  if (node->is_leaf()) {
    leaves->push_back(node);
    return;
  }
  CollectLeaves(node->left.get(), leaves);
  CollectLeaves(node->right.get(), leaves);
}

}  // namespace

void AddEndToEnd(const Samples& setup_s, const WindowedSamples& latency_ms,
                 double qps, RunContext* ctx) {
  Report& report = ctx->report;
  const Samples kept = latency_ms.Kept();
  report.Add("setup_s", setup_s.Median(), "s", setup_s.count());
  report.Add("query_ms_p50", kept.Median(), "ms", kept.count());
  report.Add("query_ms_p99", kept.Percentile(99.0), "ms", kept.count());
  report.Add("qps", qps, "1/s", kept.count());
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Note("query windows", latency_ms.Describe());
}

void MeasureKernels(const Dataset& data,
                    const std::vector<const index::TreeIndex*>& trees,
                    const Dataset& queries, Report* report) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::size_t passes = std::min(kKernelQueries, queries.size());
  // Accumulated into a volatile so no sweep can be optimized away.
  float sink = 0.0f;

  Samples ed_ns;
  for (std::size_t q = 0; q < passes; ++q) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < data.size(); ++i) {
      sink += SquaredEuclideanEarlyAbandon(queries.row(q), data.row(i),
                                           data.length(), kInf);
    }
    ed_ns.Add(MsBetween(start, Clock::now()) * 1e6 /
              static_cast<double>(data.size()));
  }
  const double ns_per_series = ed_ns.Median();
  report->Add("core.ed_ns_per_series", ns_per_series, "ns", ed_ns.count());
  report->Add("core.ed_gbps",
              static_cast<double>(data.length() * sizeof(float)) /
                  ns_per_series,
              "GB/s", ed_ns.count());

  std::vector<const index::Node*> leaves;
  std::vector<std::size_t> leaf_tree;  // index into `trees`
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const std::size_t before = leaves.size();
    for (const auto& subtree : trees[t]->subtrees()) {
      CollectLeaves(subtree.second, &leaves);
    }
    leaf_tree.insert(leaf_tree.end(), leaves.size() - before, t);
  }
  Samples lbd_ns;
  for (std::size_t q = 0; q < passes; ++q) {
    // The query's projection is shared by every leaf of a tree, so it is
    // made before the clock starts: only the per-series bound is timed.
    std::vector<std::vector<float>> values(trees.size());
    for (std::size_t t = 0; t < trees.size(); ++t) {
      values[t].resize(trees[t]->scheme().word_length());
      trees[t]->scheme().Project(queries.row(q), values[t].data());
    }
    std::size_t series = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t l = 0; l < leaves.size(); ++l) {
      const quant::SummaryScheme& scheme = trees[leaf_tree[l]]->scheme();
      const std::size_t word_length = scheme.word_length();
      for (std::size_t i = 0; i < leaves[l]->leaf_size(); ++i) {
        sink += quant::LbdSquared(scheme.table(), scheme.weights(),
                                  values[leaf_tree[l]].data(),
                                  leaves[l]->words.data() + i * word_length);
      }
      series += leaves[l]->leaf_size();
    }
    lbd_ns.Add(MsBetween(start, Clock::now()) * 1e6 /
               static_cast<double>(std::max<std::size_t>(series, 1)));
  }
  report->Add("quant.lbd_ns_per_series", lbd_ns.Median(), "ns",
              lbd_ns.count());

  Samples rowq_ns;
  for (std::size_t q = 0; q < passes; ++q) {
    std::size_t series = 0;
    const Clock::time_point start = Clock::now();
    for (const index::TreeIndex* tree : trees) {
      if (tree->rowq() == nullptr) {
        continue;
      }
      const quant::RowQuantView view(tree->rowq().get(), queries.row(q));
      for (std::size_t i = 0; i < tree->rowq()->rows(); ++i) {
        sink += view.LowerBound(i);
      }
      series += tree->rowq()->rows();
    }
    if (series > 0) {
      rowq_ns.Add(MsBetween(start, Clock::now()) * 1e6 /
                  static_cast<double>(series));
    }
  }
  report->Add("quant.rowq_ns_per_series", rowq_ns.Median(), "ns",
              rowq_ns.count());
  if (rowq_ns.count() == 0) {
    report->Note("quant.rowq_ns_per_series", "not exercised (rowq off)");
  }
  volatile float keep = sink;
  (void)keep;
}

void MeasureFlatScan(const Dataset& data, const Dataset& queries,
                     ThreadPool* pool, RunContext* ctx) {
  const flat::IndexFlatL2 flat(&data, pool);
  const std::size_t batch_size = pool->size();
  Samples per_query_ms;
  for (std::size_t q = 0; q < queries.size(); q += batch_size) {
    Dataset batch(queries.length());
    const std::size_t end = std::min(queries.size(), q + batch_size);
    for (std::size_t i = q; i < end; ++i) {
      batch.Append(queries.row(i));
    }
    const Clock::time_point start = Clock::now();
    (void)flat.SearchBatch(batch, kTopK);
    const Clock::time_point stop = Clock::now();
    ctx->spans.Add("rung.flat", start, stop, q);
    per_query_ms.Add(MsBetween(start, stop) /
                     static_cast<double>(batch.size()));
  }
  ctx->report.Add("flat.scan_ms_p50", per_query_ms.Median(), "ms",
                  per_query_ms.count());
}

std::vector<std::pair<std::string, std::string>> ShardServiceNetMetrics() {
  return {{"shard.search_ms_p50", "ms"},    {"shard.search_ms_p99", "ms"},
          {"shard.merge_us_p50", "us"},     {"service.search_ms_p50", "ms"},
          {"service.search_ms_p99", "ms"},  {"service.batch_mean", "count"},
          {"service.latency_mode_share", "ratio"},
          {"service.rejected", "count"},    {"net.overhead_ms_p50", "ms"},
          {"net.overhead_ms_p99", "ms"},    {"net.bytes_per_query", "bytes"}};
}

std::vector<std::pair<std::string, std::string>> IngestPersistMetrics() {
  return {{"ingest.insert_ms_p50", "ms"},
          {"ingest.insert_ms_p99", "ms"},
          {"ingest.delete_ms_p50", "ms"},
          {"ingest.compactions", "count"},
          {"ingest.pending_rows_max", "count"},
          {"ingest.buffer_scan_ms_p50", "ms"},
          {"ingest.wal_fsyncs_per_write", "ratio"},
          {"persist.commits", "count"},
          {"persist.commit_ms_p50", "ms"}};
}

}  // namespace perfbench
}  // namespace sofa

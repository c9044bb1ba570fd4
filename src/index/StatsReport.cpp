//===- index/StatsReport.cpp - Machine-readable index stats reports ---------===//

#include "index/StatsReport.h"

#include "obs/Metrics.h"
#include "obs/Prometheus.h"
#include "support/HashSchema.h"

#include <cstdio>

using namespace hma;

std::string hma::renderIndexStatsJson(const IndexReader<Hash128> &Index) {
  std::string J;
  char Buf[256];
  auto Add = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    J += Buf;
  };

  IndexStats S = Index.stats();
  Add("{\n  \"backend\": \"%s\",\n", Index.backendName());
  Add("  \"schema_seed\": \"0x%016llx\",\n",
      static_cast<unsigned long long>(Index.schema().seed()));
  Add("  \"hash_bits\": %u,\n", HashWidth<Hash128>::Bits);
  Add("  \"shards\": %u,\n", Index.numShards());
  Add("  \"classes\": %zu,\n", Index.numClasses());
  Add("  \"retained_bytes\": %zu,\n", Index.retainedBytes());
  Add("  \"stats\": {\"inserted\": %llu, \"new_classes\": %llu, "
      "\"duplicates\": %llu, \"fallback_checks\": %llu, "
      "\"verified_collisions\": %llu, \"decode_errors\": %llu},\n",
      static_cast<unsigned long long>(S.Inserted),
      static_cast<unsigned long long>(S.NewClasses),
      static_cast<unsigned long long>(S.Duplicates),
      static_cast<unsigned long long>(S.FallbackChecks),
      static_cast<unsigned long long>(S.VerifiedCollisions),
      static_cast<unsigned long long>(S.DecodeErrors));

  auto AddSizes = [&](const char *Key, const std::vector<size_t> &V) {
    J += "  \"";
    J += Key;
    J += "\": [";
    for (size_t I = 0; I != V.size(); ++I) {
      Add(I ? ", %zu" : "%zu", V[I]);
    }
    J += "],\n";
  };
  AddSizes("shard_classes", Index.shardLoads());
  AddSizes("shard_bytes", Index.shardBytes());

  obs::Snapshot Snap = obs::Registry::global().snapshot();
  J += "  \"metrics\": {\n    \"counters\": {";
  for (size_t I = 0; I != Snap.Counters.size(); ++I)
    Add("%s\"%s\": %llu", I ? ", " : "", Snap.Counters[I].Name.c_str(),
        static_cast<unsigned long long>(Snap.Counters[I].Value));
  J += "},\n    \"gauges\": {";
  for (size_t I = 0; I != Snap.Gauges.size(); ++I)
    Add("%s\"%s\": %lld", I ? ", " : "", Snap.Gauges[I].Name.c_str(),
        static_cast<long long>(Snap.Gauges[I].Value));
  J += "},\n    \"histograms\": {";
  for (size_t I = 0; I != Snap.Histograms.size(); ++I) {
    const obs::HistogramRow &H = Snap.Histograms[I];
    Add("%s\n      \"%s\": {\"count\": %llu, \"sum\": %llu, \"min\": %llu, "
        "\"max\": %llu, \"mean\": %.1f, \"p50\": %.1f, \"p90\": %.1f, "
        "\"p99\": %.1f}",
        I ? "," : "", H.Name.c_str(),
        static_cast<unsigned long long>(H.Data.Count),
        static_cast<unsigned long long>(H.Data.Sum),
        static_cast<unsigned long long>(H.Data.min()),
        static_cast<unsigned long long>(H.Data.Max), H.Data.mean(),
        H.Data.percentile(0.5), H.Data.percentile(0.9),
        H.Data.percentile(0.99));
  }
  J += Snap.Histograms.empty() ? "}\n  }\n}\n" : "\n    }\n  }\n}\n";
  return J;
}

std::string hma::renderIndexStatsProm(const IndexReader<Hash128> &Index) {
  IndexStats S = Index.stats();
  std::vector<obs::PromSample> Extras = {
      {"hma_index_classes", "Distinct alpha-equivalence classes", false,
       static_cast<double>(Index.numClasses())},
      {"hma_index_shards", "Lock stripes / table groups", false,
       static_cast<double>(Index.numShards())},
      {"hma_index_retained_blob_bytes", "Canonical blob bytes served",
       false, static_cast<double>(Index.retainedBytes())},
      {"hma_index_inserted_total", "Successful ingest operations", true,
       static_cast<double>(S.Inserted)},
      {"hma_index_new_classes_total", "Inserts that created a class", true,
       static_cast<double>(S.NewClasses)},
      {"hma_index_duplicates_total", "Inserts merged into existing classes",
       true, static_cast<double>(S.Duplicates)},
      {"hma_index_fallback_checks_total",
       "Exact alpha-equivalence checks run (ingest + reads)", true,
       static_cast<double>(S.FallbackChecks)},
      {"hma_index_verified_collisions_total",
       "Hash hits refuted by the exact oracle", true,
       static_cast<double>(S.VerifiedCollisions)},
      {"hma_index_decode_errors_total", "Corpus blobs that failed to "
                                        "deserialise",
       true, static_cast<double>(S.DecodeErrors)},
  };
  return renderPrometheus(obs::Registry::global().snapshot(), Extras);
}

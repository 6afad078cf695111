#include "src/core/results.h"

#include <fstream>

#include "src/config/json.h"
#include "src/support/strings.h"
#include "src/vm/interpreter.h"

namespace diablo {
namespace {

// Appends `"key": "value", ` with the value quoted as a JSON string.
void AppendStringField(const char* key, const std::string& value, std::string* out) {
  *out += StrFormat("\"%s\": ", key);
  AppendJsonString(value, out);
  *out += ", ";
}

}  // namespace

std::string ReportToJson(const Report& report) {
  std::string out = "{";
  AppendStringField("chain", report.chain, &out);
  AppendStringField("deployment", report.deployment, &out);
  AppendStringField("workload", report.workload, &out);
  out += StrFormat("\"duration_s\": %.1f, ", report.workload_duration);
  out += StrFormat("\"submitted\": %zu, ", report.submitted);
  out += StrFormat("\"committed\": %zu, ", report.committed);
  out += StrFormat("\"dropped\": %zu, ", report.dropped);
  out += StrFormat("\"aborted\": %zu, ", report.aborted);
  out += StrFormat("\"pending\": %zu, ", report.pending);
  out += StrFormat("\"avg_load_tps\": %.2f, ", report.avg_load);
  out += StrFormat("\"avg_throughput_tps\": %.2f, ", report.avg_throughput);
  out += StrFormat("\"commit_ratio\": %.4f, ", report.commit_ratio);
  out += StrFormat("\"avg_latency_s\": %.3f, ", report.avg_latency);
  out += StrFormat("\"median_latency_s\": %.3f, ", report.median_latency);
  out += StrFormat("\"p95_latency_s\": %.3f, ", report.p95_latency);
  out += StrFormat("\"max_latency_s\": %.3f", report.max_latency);
  if (report.resilience) {
    out += StrFormat(", \"view_changes\": %llu",
                     static_cast<unsigned long long>(report.view_changes));
    out += StrFormat(", \"blocks_abandoned\": %llu",
                     static_cast<unsigned long long>(report.blocks_abandoned));
    out += StrFormat(", \"client_retries\": %llu",
                     static_cast<unsigned long long>(report.client_retries));
    out += StrFormat(", \"client_aborts\": %llu",
                     static_cast<unsigned long long>(report.client_aborts));
    out += StrFormat(", \"min_interval_commit_ratio\": %.4f",
                     report.min_interval_commit_ratio);
    out += ", \"time_to_recovery_s\": [";
    for (size_t i = 0; i < report.recoveries.size(); ++i) {
      out += StrFormat("%s%.3f", i == 0 ? "" : ", ", report.recoveries[i]);
    }
    out += "]";
  }
  if (report.byzantine) {
    out += StrFormat(", \"equivocations_seen\": %llu",
                     static_cast<unsigned long long>(report.equivocations_seen));
    out += StrFormat(", \"double_votes_seen\": %llu",
                     static_cast<unsigned long long>(report.double_votes_seen));
    out += StrFormat(", \"votes_withheld\": %llu",
                     static_cast<unsigned long long>(report.votes_withheld));
    out += StrFormat(", \"txs_censored\": %llu",
                     static_cast<unsigned long long>(report.txs_censored));
    out += StrFormat(", \"lazy_proposals\": %llu",
                     static_cast<unsigned long long>(report.lazy_proposals));
  }
  out += "}";
  return out;
}

void WriteResultsJson(std::ostream& out, const Report& report, const TxStore& txs,
                      size_t max_txs) {
  out << "{\n  \"summary\": " << ReportToJson(report) << ",\n";
  out << "  \"transactions\": [\n";
  size_t written = 0;
  for (TxId id = 0; id < txs.size() && written < max_txs; ++id) {
    const Transaction& tx = txs.at(id);
    if (tx.phase == TxPhase::kCreated) {
      continue;
    }
    if (written > 0) {
      out << ",\n";
    }
    out << StrFormat(
        "    {\"submit\": %.6f, \"commit\": %.6f, \"latency\": %.6f, \"status\": "
        "\"%s\"}",
        ToSeconds(tx.submit_time),
        tx.commit_time < 0 ? -1.0 : ToSeconds(tx.commit_time), tx.LatencySeconds(),
        std::string(TxPhaseName(tx.phase)).c_str());
    ++written;
  }
  out << "\n  ]\n}\n";
}

void WriteResultsCsv(std::ostream& out, const TxStore& txs) {
  out << "submit_time,latency,status\n";
  for (TxId id = 0; id < txs.size(); ++id) {
    const Transaction& tx = txs.at(id);
    if (tx.phase == TxPhase::kCreated) {
      continue;
    }
    out << StrFormat("%.6f,%.6f,%s\n", ToSeconds(tx.submit_time), tx.LatencySeconds(),
                     std::string(TxPhaseName(tx.phase)).c_str());
  }
}

bool WriteResultsJsonFile(const std::string& path, const Report& report,
                          const TxStore& txs, size_t max_txs) {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  WriteResultsJson(file, report, txs, max_txs);
  return static_cast<bool>(file);
}

bool WriteResultsCsvFile(const std::string& path, const TxStore& txs) {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  WriteResultsCsv(file, txs);
  return static_cast<bool>(file);
}

}  // namespace diablo

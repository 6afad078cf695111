#include "src/analysis/analysis.h"

#include "src/config/json.h"
#include "src/support/strings.h"

namespace diablo {

SampleSet LoadedResults::CommittedLatencies() const {
  SampleSet latencies;
  for (const TxRecord& tx : transactions) {
    if (tx.status == "committed" && tx.latency >= 0) {
      latencies.Add(tx.latency);
    }
  }
  return latencies;
}

TimeSeries LoadedResults::CommittedPerSecond() const {
  TimeSeries series;
  for (const TxRecord& tx : transactions) {
    if (tx.status == "committed" && tx.commit >= 0) {
      series.Add(tx.commit);
    }
  }
  return series;
}

LoadResult LoadResultsJson(std::string_view json_text) {
  LoadResult result;
  const JsonResult parsed = ParseJson(json_text);
  if (!parsed.ok) {
    result.error = parsed.error;
    return result;
  }
  const JsonValue* summary = parsed.value.Find("summary");
  if (summary == nullptr || !summary->IsObject()) {
    result.error = "missing 'summary' object";
    return result;
  }
  LoadedResults& out = result.results;
  out.chain = summary->GetString("chain", "?");
  out.deployment = summary->GetString("deployment", "?");
  out.workload = summary->GetString("workload", "?");
  out.duration_s = summary->GetNumber("duration_s", 0);
  out.submitted = static_cast<size_t>(summary->GetNumber("submitted", 0));
  out.committed = static_cast<size_t>(summary->GetNumber("committed", 0));
  out.dropped = static_cast<size_t>(summary->GetNumber("dropped", 0));
  out.aborted = static_cast<size_t>(summary->GetNumber("aborted", 0));
  out.pending = static_cast<size_t>(summary->GetNumber("pending", 0));
  out.avg_throughput = summary->GetNumber("avg_throughput_tps", 0);
  out.avg_latency = summary->GetNumber("avg_latency_s", 0);

  const JsonValue* txs = parsed.value.Find("transactions");
  if (txs != nullptr && txs->IsArray()) {
    out.transactions.reserve(txs->items.size());
    for (const JsonValue& item : txs->items) {
      TxRecord record;
      record.submit = item.GetNumber("submit", 0);
      record.commit = item.GetNumber("commit", -1);
      record.latency = item.GetNumber("latency", -1);
      record.status = item.GetString("status", "?");
      out.transactions.push_back(std::move(record));
    }
  }
  result.ok = true;
  return result;
}

LoadResult LoadResultsCsv(std::string_view csv_text) {
  LoadResult result;
  bool saw_header = false;
  for (const std::string& raw : Split(csv_text, '\n')) {
    const std::string line = Trim(raw);
    if (line.empty()) {
      continue;
    }
    if (!saw_header) {
      if (line != "submit_time,latency,status") {
        result.error = "unexpected header: " + line;
        return result;
      }
      saw_header = true;
      continue;
    }
    const std::vector<std::string> fields = Split(line, ',');
    if (fields.size() != 3) {
      result.error = "malformed row: " + line;
      return result;
    }
    TxRecord record;
    if (!ParseDouble(fields[0], &record.submit) ||
        !ParseDouble(fields[1], &record.latency)) {
      result.error = "malformed numbers: " + line;
      return result;
    }
    record.status = fields[2];
    if (record.latency >= 0) {
      record.commit = record.submit + record.latency;
    }
    result.results.transactions.push_back(std::move(record));
  }
  if (!saw_header) {
    result.error = "empty document";
    return result;
  }
  LoadedResults& out = result.results;
  for (const TxRecord& tx : out.transactions) {
    ++out.submitted;
    if (tx.status == "committed") {
      ++out.committed;
    } else if (tx.status == "dropped") {
      ++out.dropped;
    } else if (tx.status == "aborted") {
      ++out.aborted;
    } else {
      ++out.pending;
    }
  }
  result.ok = true;
  return result;
}

std::string CompareRuns(const std::vector<LoadedResults>& runs) {
  std::string out = StrFormat("%-10s %-12s %-12s %10s %10s %9s\n", "chain",
                              "deployment", "workload", "tput TPS", "lat s",
                              "commit%");
  for (const LoadedResults& run : runs) {
    const double ratio =
        run.submitted == 0
            ? 0.0
            : 100.0 * static_cast<double>(run.committed) / static_cast<double>(run.submitted);
    out += StrFormat("%-10s %-12s %-12s %10.1f %10.2f %8.1f%%\n", run.chain.c_str(),
                     run.deployment.c_str(), run.workload.c_str(), run.avg_throughput,
                     run.avg_latency, ratio);
  }
  return out;
}

}  // namespace diablo

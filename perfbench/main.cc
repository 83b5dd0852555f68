// perfbench command line.
//
//   perfbench --workload <fill|point-read|mixgraph|ds-ycsb> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>]
//             [--plant-mismatch]
//   perfbench --check-trace-self-times
//
// Prints one JSON record per metric (name, value, unit, sample count,
// workload, seed, commit), then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// of an untraced run or the per-layer metrics of a traced one. Exits
// non-zero without a result line when the run cannot complete.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.h"
#include "util/event_logger.h"

namespace {

using shield::JsonWriter;
using shield::perfbench::Metric;
using shield::perfbench::MetricKind;
using shield::perfbench::RunConfig;
using shield::perfbench::RunOutcome;

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEndToEnd:
      return "end_to_end";
    case MetricKind::kLayer:
      return "per_layer";
    case MetricKind::kDetail:
      break;
  }
  return "detail";
}

// Full-precision number: JsonWriter rounds doubles to 6 digits, and
// run-to-run comparisons need every digit measured.
void AppendNumber(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  out->append(buf);
}

std::string ResultLine(const RunOutcome& outcome, MetricKind selected) {
  std::string line = "{\"correct\":";
  line.append(outcome.correct ? "true" : "false");
  line.append(",\"attempted\":").append(std::to_string(outcome.attempted));
  line.append(",\"failed\":").append(std::to_string(outcome.failed));
  line.append(",\"metrics\":{");
  bool first = true;
  for (const Metric& m : outcome.metrics.all()) {
    if (m.kind != selected) {
      continue;
    }
    if (!first) {
      line.push_back(',');
    }
    first = false;
    JsonWriter::AppendEscaped(&line, m.name);
    line.append(":{\"value\":");
    AppendNumber(&line, m.value);
    line.append(",\"unit\":");
    JsonWriter::AppendEscaped(&line, m.unit);
    line.push_back('}');
  }
  line.append("}}");
  return line;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>] [--plant-mismatch]\n"
               "       perfbench --check-trace-self-times\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--check-trace-self-times") {
      shield::Status s = shield::perfbench::CheckTracedGetSelfTimes();
      std::printf("trace self-time check: %s\n", s.ToString().c_str());
      return s.ok() ? 0 : 1;
    } else if (arg == "--plant-mismatch") {
      config.plant_mismatch = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--commit" && has_value) {
      commit = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!have_workload || !(config.seconds > 0)) {
    return Usage();
  }

  RunOutcome outcome;
  shield::perfbench::RunWorkload(config, &outcome);
  if (!outcome.error.empty()) {
    std::fprintf(stderr, "perfbench %s: %s\n", config.workload.c_str(),
                 outcome.error.c_str());
    return 1;
  }

  for (const Metric& m : outcome.metrics.all()) {
    JsonWriter w;
    w.Add("metric", m.name)
        .Add("value", m.value)
        .Add("unit", m.unit)
        .Add("kind", KindName(m.kind));
    if (m.samples > 0) {
      w.Add("samples", m.samples);
    }
    w.Add("workload", config.workload)
        .Add("seed", config.seed)
        .Add("commit", commit);
    std::printf("%s\n", w.Finish().c_str());
  }
  std::printf("%s\n", ResultLine(outcome, config.trace ? MetricKind::kLayer
                                                       : MetricKind::kEndToEnd)
                          .c_str());
  return 0;
}

namespace shield {
namespace perfbench {

void MetricSet::Add(const std::string& name, const std::string& unit,
                    double value, MetricKind kind, uint64_t samples) {
  metrics_.push_back({name, unit, value, kind, samples});
}

}  // namespace perfbench
}  // namespace shield

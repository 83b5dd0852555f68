// perfbench: the SHIELD engine's benchmark. One process runs one named
// workload against the full SHIELD design (Engine::kShieldWalBuf) with a
// closed loop of client threads, checks every result against a
// generator, and prints its metrics by name. Shared declarations for the
// benchmark's translation units; nothing here is part of the engine.

#ifndef SHIELD_PERFBENCH_PERFBENCH_H_
#define SHIELD_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "kds/kds.h"
#include "lsm/compaction_service.h"
#include "util/slice.h"
#include "util/status.h"

namespace shield {
namespace perfbench {

// ---------------------------------------------------------------------
// Key/value model. Keys are 16-byte zero-padded decimal indices (the
// db_bench key shape). A value is a pure function of (seed, key index,
// version): a 4-byte version header followed by filler bytes drawn from
// a hash of all three, so any stale, torn or foreign value is caught.

constexpr size_t kKeySize = 16;

std::string KeyOf(uint64_t index);
bool ParseKey(const Slice& key, uint64_t* index);

void MakeValue(uint64_t seed, uint64_t index, uint32_t version, size_t len,
               std::string* out);

/// True when `value` is exactly MakeValue(seed, index, v, len) for some
/// version v in [min_version, max_version] and the length `len_of(v)`.
/// `len_of` maps a version to its value length (fixed for most
/// workloads, Pareto-drawn per version for mixgraph).
using LengthFn = size_t (*)(uint64_t seed, uint64_t index, uint32_t version);
bool CheckValue(uint64_t seed, uint64_t index, const Slice& value,
                uint32_t min_version, uint32_t max_version, LengthFn len_of);

// ---------------------------------------------------------------------
// Bench-side decorators around the engine's public extension points.
// They count always and time only while timing is on (the traced run).

void SetDecoratorTiming(bool on);

/// Per-thread I/O tally kept by CountingEnv, so a client thread can
/// attribute the I/O done inside one of its operations to that op.
struct IoTally {
  uint64_t sst_opens = 0;   // NewRandomAccessFile on *.sst
  uint64_t sst_reads = 0;   // RandomAccessFile::Read on *.sst
  uint64_t read_nanos = 0;  // time in Read (all files), timing on only
  uint64_t rpcs = 0;        // calls that cost a fabric round trip

  void Add(const IoTally& after, const IoTally& before);
};
IoTally& ThreadIo();

/// Process-wide totals kept by the decorators.
struct DecoratorTotals {
  uint64_t write_bytes = 0;  // bytes appended to any file
  uint64_t kds_requests = 0;
  uint64_t kds_nanos = 0;
  uint64_t offload_jobs = 0;
  uint64_t offload_nanos = 0;
};
DecoratorTotals ReadDecoratorTotals();

/// Wraps an Env: counts table opens, reads and appended bytes, and
/// (with `fabric`) every call that costs the wrapped RemoteEnv a round
/// trip.
std::unique_ptr<Env> NewCountingEnv(Env* target, bool fabric);

/// Wraps a Kds, counting and timing CreateDek/GetDek/DeleteDek.
std::shared_ptr<Kds> NewTimedKds(std::shared_ptr<Kds> target);

/// Wraps a CompactionService, counting and timing RunCompaction.
std::unique_ptr<CompactionService> NewTimedCompactionService(
    CompactionService* target);

// ---------------------------------------------------------------------
// Trace read-back: self time per span type. A span's self time is its
// duration minus the part of its interval its child spans cover.

struct TraceProfile {
  std::map<std::string, uint64_t> self_us;  // by SpanTypeName
  uint64_t spans = 0;
  /// Root spans of client operations (db.get / db.write / db.seek).
  uint64_t client_roots = 0;
  uint64_t client_root_us = 0;
  /// Sum of self times over every span in client-operation trees.
  uint64_t client_tree_self_us = 0;
  /// Total duration of the spans in client-operation trees, by type.
  std::map<std::string, uint64_t> client_tree_us;
  bool truncated = false;
};
Status ProfileTrace(Env* env, const std::string& path, TraceProfile* out);

// ---------------------------------------------------------------------
// Metrics.

enum class MetricKind {
  kEndToEnd,  // in the result line of an untraced run
  kLayer,     // in the result line of a traced run
  kDetail,    // printed by name, not gated
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  MetricKind kind = MetricKind::kDetail;
  uint64_t samples = 0;  // 0 = not a sampled statistic
};

class MetricSet {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           MetricKind kind, uint64_t samples = 0);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Host ceilings of the crypto/ public API (crypto.* per-layer rows).
void MeasureCryptoCeilings(MetricSet* metrics);

// ---------------------------------------------------------------------
// Workloads.

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: corrupt the value of the first checked Get so the
  /// checker must count it as failed.
  bool plant_mismatch = false;
};

struct RunOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string error;  // set when the run could not complete
  MetricSet metrics;
};

void RunWorkload(const RunConfig& config, RunOutcome* outcome);

/// Opens a small SHIELD DB, traces one Get and checks that the self
/// times of its span tree add up to the root span's duration. Returns
/// the failure as a non-OK status.
Status CheckTracedGetSelfTimes();

}  // namespace perfbench
}  // namespace shield

#endif  // SHIELD_PERFBENCH_PERFBENCH_H_

// The four workloads, the closed-loop clients and the metrics each
// run reports. Every operation's Status is checked and every value read
// is compared with the generator; see perfbench.h for the value model.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <mutex>
#include <thread>

#include "benchutil/engines.h"
#include "ds/compaction_worker.h"
#include "ds/storage_service.h"
#include "kds/local_kds.h"
#include "kds/sim_kds.h"
#include "lsm/db.h"
#include "perfbench.h"
#include "util/clock.h"
#include "util/perf_context.h"
#include "util/random.h"
#include "util/statistics.h"
#include "util/trace.h"

namespace shield {
namespace perfbench {

namespace {

// Load model: a closed loop of two client threads, each blocking on its
// call, beside two background jobs, so that foreground and background
// work fit a 4-vCPU host.
constexpr int kClients = 2;
constexpr int kBackgroundJobs = 2;
// Spans written before a traced phase stops early (see RunPhase).
constexpr uint64_t kTraceSpanBudget = 1'000'000;
// An untraced run sets up at least kMinSetups times and until
// kSetupBudgetNanos of set-up time has passed (at most kMaxSetups), and
// reports the median set-up time.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr uint64_t kSetupBudgetNanos = 2'000'000'000;

enum OpKind { kGet = 0, kPut, kSeek, kNumKinds };
const char* const kKindName[kNumKinds] = {"get", "put", "seek"};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

size_t Len100(uint64_t, uint64_t, uint32_t) { return 100; }
size_t Len1K(uint64_t, uint64_t, uint32_t) { return 1024; }
// FAST'20 mixgraph value sizes: bounded Pareto(16, 1.6) capped at 1 KiB
// (mean about 37 B), drawn per (seed, key, version).
size_t LenPareto(uint64_t seed, uint64_t index, uint32_t version) {
  ParetoGenerator pareto(16.0, 1.6, 1024.0, Mix(Mix(seed, index), version));
  return static_cast<size_t>(pareto.Next());
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double RssPeakMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// The PerfContext fields the per-layer metrics use, summed per op kind.
struct PerfSums {
  uint64_t block_read_count = 0;
  uint64_t decrypt_bytes = 0;
  uint64_t decrypt_micros = 0;
  uint64_t hmac_verify_count = 0;
  uint64_t hmac_micros = 0;
  uint64_t iter_seek_micros = 0;
  uint64_t memtable_insert_micros = 0;
  uint64_t wal_write_micros = 0;

  void Add(const PerfContext& after, const PerfContext& before) {
    block_read_count += after.block_read_count - before.block_read_count;
    decrypt_bytes += after.decrypt_bytes - before.decrypt_bytes;
    decrypt_micros += after.decrypt_micros - before.decrypt_micros;
    hmac_verify_count += after.hmac_verify_count - before.hmac_verify_count;
    hmac_micros += after.hmac_micros - before.hmac_micros;
    iter_seek_micros += after.iter_seek_micros - before.iter_seek_micros;
    memtable_insert_micros +=
        after.memtable_insert_micros - before.memtable_insert_micros;
    wal_write_micros += after.wal_write_micros - before.wal_write_micros;
  }
  void Merge(const PerfSums& o) {
    block_read_count += o.block_read_count;
    decrypt_bytes += o.decrypt_bytes;
    decrypt_micros += o.decrypt_micros;
    hmac_verify_count += o.hmac_verify_count;
    hmac_micros += o.hmac_micros;
    iter_seek_micros += o.iter_seek_micros;
    memtable_insert_micros += o.memtable_insert_micros;
    wal_write_micros += o.wal_write_micros;
  }
};

/// Latency histogram with 128 linear sub-buckets per power of two of
/// nanoseconds, so a percentile is within 0.8 % of the samples'. Its size
/// is fixed: the benchmark's own memory does not grow with throughput,
/// which would otherwise show in rss_peak_mb.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(uint64_t ns) {
    counts_[Bucket(std::min<uint64_t>(ns, kMaxNanos))]++;
    count_++;
    sum_ns_ += ns;
  }
  void Merge(const LatencyHistogram& o) {
    for (size_t b = 0; b < kBuckets; b++) {
      counts_[b] += o.counts_[b];
    }
    count_ += o.count_;
    sum_ns_ += o.sum_ns_;
  }
  uint64_t count() const { return count_; }
  uint64_t sum_ns() const { return sum_ns_; }

  /// The p-th percentile in microseconds, interpolated within its bucket.
  double PercentileUs(double p) const {
    if (count_ == 0) {
      return 0;
    }
    const double rank = p / 100.0 * static_cast<double>(count_);
    double below = 0;
    for (size_t b = 0; b < kBuckets; b++) {
      const double in = static_cast<double>(counts_[b]);
      if (in > 0 && below + in >= rank) {
        const double frac = std::max(0.0, rank - below) / in;
        return (Lower(b) + frac * Width(b)) / 1000.0;
      }
      below += in;
    }
    return Lower(kBuckets - 1) / 1000.0;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr uint64_t kMaxNanos = UINT32_MAX;
  static constexpr size_t kBuckets = (32 - kSubBits + 1) * kSub;

  // Values below kSub get a bucket each; above, the top kSubBits bits
  // after the leading one select the sub-bucket.
  static size_t Bucket(uint64_t v) {
    if (v < kSub) {
      return v;
    }
    const int shift = 63 - __builtin_clzll(v) - kSubBits;
    return (shift + 1) * kSub + ((v >> shift) - kSub);
  }
  static double Lower(size_t b) {
    if (b < kSub) {
      return static_cast<double>(b);
    }
    const int shift = static_cast<int>(b / kSub) - 1;
    return static_cast<double>((kSub + b % kSub) << shift);
  }
  static double Width(size_t b) {
    return b < kSub ? 1.0 : static_cast<double>(uint64_t{1} << (b / kSub - 1));
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
};

/// One client thread's view of a phase: latencies, results and (traced)
/// the PerfContext and I/O deltas of each op, by kind.
class Client {
 public:
  Client(bool traced, uint64_t stream_seed)
      : rnd(stream_seed), traced_(traced) {}

  void Begin() {
    if (traced_) {
      perf_before_ = *GetPerfContext();
      io_before_ = ThreadIo();
    }
    start_ = NowNanos();
  }
  void End(OpKind kind) {
    lat[kind].Add(NowNanos() - start_);
    if (traced_) {
      perf[kind].Add(*GetPerfContext(), perf_before_);
      io[kind].Add(ThreadIo(), io_before_);
    }
  }
  void Count(bool ok, uint64_t n = 1) {
    attempted += n;
    failed += ok ? 0 : n;
  }

  Random rnd;
  std::unique_ptr<ZipfianGenerator> zipf;
  LatencyHistogram lat[kNumKinds];
  PerfSums perf[kNumKinds];
  IoTally io[kNumKinds];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t user_bytes = 0;

 private:
  const bool traced_;
  PerfContext perf_before_;
  IoTally io_before_;
  uint64_t start_ = 0;
};

/// Last acknowledged (committed) and last issued version of every key.
/// Puts to one key are serialised by a lock stripe, so the DB applies
/// them in version order and a Get that starts after a Put returned must
/// see that version or a later issued one.
class VersionTable {
 public:
  explicit VersionTable(uint64_t n) : committed_(n), issued_(n) {}

  uint64_t size() const { return committed_.size(); }
  std::mutex& Stripe(uint64_t k) { return stripes_[k % kStripes]; }
  uint32_t committed(uint64_t k) const { return committed_[k].load(); }
  uint32_t issued(uint64_t k) const { return issued_[k].load(); }
  uint32_t Issue(uint64_t k) { return issued_[k].fetch_add(1) + 1; }
  void Commit(uint64_t k, uint32_t v) { committed_[k].store(v); }

 private:
  static constexpr size_t kStripes = 4096;
  std::vector<std::atomic<uint32_t>> committed_;
  std::vector<std::atomic<uint32_t>> issued_;
  std::mutex stripes_[kStripes];
};

/// Everything one DB under test needs; destroyed DB first.
struct Stack {
  std::unique_ptr<Env> mem;              // monolith store / DS backing store
  std::unique_ptr<StorageService> storage;  // DS only
  std::unique_ptr<Env> remote;           // DS only: compute-side view
  std::unique_ptr<Env> env;              // counting Env the DB uses
  std::unique_ptr<Env> server_env;       // DS only: counting worker view
  std::unique_ptr<RemoteCompactionWorker> worker;
  std::unique_ptr<CompactionService> offload;
  Options options;
  std::unique_ptr<DB> db;
  std::string path = "/perfbench/db";

  ~Stack() {
    db.reset();
    if (storage != nullptr) {
      storage->SetStatisticsSink(nullptr);
    }
  }

  Status Open() {
    DB* raw = nullptr;
    Status s = DB::Open(options, path, &raw);
    db.reset(raw);
    return s;
  }

  /// Bytes of the DB's data files (tables, logs, manifest) on storage.
  uint64_t LiveBytes() {
    Env* store = storage != nullptr ? storage->server_env() : mem.get();
    std::vector<std::string> children;
    store->GetChildren(path, &children);
    uint64_t total = 0;
    for (const std::string& name : children) {
      if (name == "LOG" || name.rfind("LOG.", 0) == 0) {
        continue;  // the plaintext info log is not data
      }
      uint64_t size = 0;
      if (store->GetFileSize(path + "/" + name, &size).ok()) {
        total += size;
      }
    }
    return total;
  }
};

Options EngineOptions(size_t write_buffer, size_t block_cache,
                      std::shared_ptr<Kds> kds) {
  Options options;
  options.write_buffer_size = write_buffer;
  options.block_cache_size = block_cache;
  options.max_background_jobs = kBackgroundJobs;
  // Production keeps statistics on, and the per-sample histogram cost
  // of Statistics must stay visible in the timed run.
  options.statistics = CreateDBStatistics();
  bench::ApplyEngine(bench::Engine::kShieldWalBuf, &options);
  options.encryption.kds = NewTimedKds(std::move(kds));
  return options;
}

Status OpenMonolith(Stack* st, size_t write_buffer, size_t block_cache) {
  st->mem = NewMemEnv();
  st->env = NewCountingEnv(st->mem.get(), /*fabric=*/false);
  st->options = EngineOptions(write_buffer, block_cache,
                              std::make_shared<LocalKds>());
  st->options.env = st->env.get();
  return st->Open();
}

// The simulated DS fabric: StorageService + NetworkSimulator at 200 us
// RTT and 1 Gbps, SimKds at 2750 us per request, and compaction
// offloaded to a RemoteCompactionWorker that resolves input DEKs from
// the DEK-ID in each file's header.
Status OpenDisaggregated(Stack* st, size_t write_buffer, size_t block_cache) {
  st->mem = NewMemEnv();
  NetworkSimOptions network;
  network.rtt_micros = 200;
  network.bandwidth_bytes_per_sec = 125ull * 1000 * 1000;
  st->storage = std::make_unique<StorageService>(st->mem.get(), network);
  st->remote = NewRemoteEnv(st->storage.get(), nullptr);
  st->env = NewCountingEnv(st->remote.get(), /*fabric=*/true);
  st->server_env = NewCountingEnv(st->storage->server_env(), false);
  SimKdsOptions kds_options;
  kds_options.request_latency_us = 2750;
  st->options = EngineOptions(write_buffer, block_cache,
                              std::make_shared<SimKds>(kds_options));
  st->options.env = st->env.get();
  st->options.encryption.server_id = "primary";
  st->storage->SetStatisticsSink(st->options.statistics.get());

  RemoteCompactionWorker::WorkerOptions worker;
  worker.env = st->server_env.get();
  worker.db_options = st->options;
  worker.db_options.env = st->server_env.get();
  worker.db_options.encryption.server_id = "worker";
  worker.server_id = "worker";
  st->worker = std::make_unique<RemoteCompactionWorker>(worker);
  st->offload = NewTimedCompactionService(st->worker.get());
  st->options.compaction_service = st->offload.get();
  return st->Open();
}

/// Writes version 0 of keys [0, n) in key order, in batches.
Status Preload(DB* db, uint64_t seed, uint64_t n, LengthFn len_of) {
  WriteBatch batch;
  std::string value;
  for (uint64_t k = 0; k < n; k++) {
    MakeValue(seed, k, 0, len_of(seed, k, 0), &value);
    batch.Put(KeyOf(k), value);
    if (batch.Count() == 1000 || k + 1 == n) {
      Status s = db->Write(WriteOptions(), &batch);
      if (!s.ok()) {
        return s;
      }
      batch.Clear();
    }
  }
  return Status::OK();
}

/// Everything a workload measured in one phase.
struct PhaseResult {
  double window_s = 0;
  uint64_t ops[kNumKinds] = {};
  LatencyHistogram lat[kNumKinds];
  PerfSums perf[kNumKinds];
  IoTally io[kNumKinds];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t user_bytes = 0;
  uint64_t tickers[kNumTickers] = {};  // deltas
  double flush_us = 0;
  double compaction_us = 0;
  uint64_t flushes = 0;
  DecoratorTotals decorators;  // deltas

  uint64_t total_ops() const { return ops[kGet] + ops[kPut] + ops[kSeek]; }
  uint64_t ticker(Tickers t) const { return tickers[static_cast<size_t>(t)]; }
};

double HistogramSum(const Statistics& stats, Histograms h) {
  const Histogram& hist = stats.GetHistogram(h);
  return hist.Average() * static_cast<double>(hist.Count());
}

class Workload {
 public:
  Workload(const RunConfig& config, uint64_t keys)
      : config_(config), keys_(keys) {}
  virtual ~Workload() = default;

  /// Forgets every write, for a fresh DB. Benchmark bookkeeping: done
  /// before the set-up clock starts.
  void ResetVersions() { versions_ = std::make_unique<VersionTable>(keys_); }

  /// Builds a fresh Stack, opens the DB and brings it to the state the
  /// timed phase starts from.
  virtual Status Setup(Stack* st) = 0;
  /// One operation of client `t`.
  virtual void Op(Stack* st, int t, Client* c) = 0;
  /// Work that belongs to the timed window after the clients stop.
  virtual Status Drain(Stack*) { return Status::OK(); }
  /// Checks after a phase, outside the timed window.
  virtual void AfterPhase(Stack*, Client*, MetricSet*) {}
  virtual bool uses_zipf() const { return false; }

  uint64_t seed() const { return config_.seed; }
  VersionTable* versions() { return versions_.get(); }

 protected:
  void Get(Stack* st, Client* c, uint64_t k, LengthFn len_of) {
    const uint32_t lo = versions_->committed(k);
    const std::string key = KeyOf(k);
    std::string value;
    c->Begin();
    Status s = st->db->Get(ReadOptions(), key, &value);
    c->End(kGet);
    const uint32_t hi = versions_->issued(k);
    if (s.ok() && config_.plant_mismatch && !planted_.exchange(true)) {
      value.back() ^= 1;
    }
    c->Count(s.ok() && CheckValue(seed(), k, value, lo, hi, len_of));
  }

  void Put(Stack* st, Client* c, uint64_t k, LengthFn len_of) {
    std::lock_guard<std::mutex> lock(versions_->Stripe(k));
    const uint32_t v = versions_->Issue(k);
    std::string value;
    MakeValue(seed(), k, v, len_of(seed(), k, v), &value);
    const std::string key = KeyOf(k);
    c->Begin();
    Status s = st->db->Put(WriteOptions(), key, value);
    c->End(kPut);
    if (s.ok()) {
      versions_->Commit(k, v);
    }
    c->user_bytes += key.size() + value.size();
    c->Count(s.ok());
  }

  /// Seek to existing key `k` and step 10 times: the first entry must be
  /// key k with a valid value, the next ones keys k+1, k+2, ...
  void Seek(Stack* st, Client* c, uint64_t k, LengthFn len_of) {
    const uint32_t lo = versions_->committed(k);
    const uint64_t n = versions_->size();
    const std::string key = KeyOf(k);
    std::string first_key;
    std::string first_value;
    bool in_order = true;
    c->Begin();
    std::unique_ptr<Iterator> it(st->db->NewIterator(ReadOptions()));
    it->Seek(key);
    if (it->Valid()) {
      first_key = it->key().ToString();
      first_value = it->value().ToString();
      for (uint64_t j = 1; j <= 10 && it->Valid(); j++) {
        it->Next();
        uint64_t got = 0;
        const bool expect_valid = k + j < n;
        if (it->Valid() != expect_valid ||
            (expect_valid && (!ParseKey(it->key(), &got) || got != k + j))) {
          in_order = false;
          break;
        }
      }
    }
    Status s = it->status();
    it.reset();
    c->End(kSeek);
    const uint32_t hi = versions_->issued(k);
    c->Count(s.ok() && in_order && first_key == key &&
             CheckValue(seed(), k, first_value, lo, hi, len_of));
  }

  const RunConfig config_;
  const uint64_t keys_;
  std::unique_ptr<VersionTable> versions_;
  std::atomic<bool> planted_{false};
};

// fill: a fresh DB, 4 MiB write buffer, 2 writers putting uniform random
// 16 B keys with 100 B values. Timed from the first Put until the DB is
// idle after a final Flush, so only the sustained rate counts. Each
// writer owns the keys congruent to its id mod 2, so the last value of
// every key is known; afterwards the DB is closed, reopened and every
// acknowledged key read back.
class FillWorkload final : public Workload {
 public:
  explicit FillWorkload(const RunConfig& config) : Workload(config, kKeys) {}
  // Small enough that the key space is overwritten several times in a
  // run, so the DB's size (and the process's memory, which holds it)
  // levels off instead of growing with throughput.
  static constexpr uint64_t kKeys = 250'000;

  Status Setup(Stack* st) override {
    return OpenMonolith(st, 4 << 20, 32 << 20);
  }
  void Op(Stack* st, int t, Client* c) override {
    const uint64_t k = 2 * c->rnd.Uniform(kKeys / 2) + static_cast<uint64_t>(t);
    Put(st, c, k, Len100);
  }
  Status Drain(Stack* st) override {
    Status s = st->db->Flush();
    st->db->WaitForIdle();
    return s;
  }
  void AfterPhase(Stack* st, Client* c, MetricSet* metrics) override {
    uint64_t live_keys = 0;
    for (uint64_t k = 0; k < kKeys; k++) {
      live_keys += versions_->committed(k) > 0 ? 1 : 0;
    }
    metrics->Add("space_amp", "ratio",
                 Ratio(static_cast<double>(st->LiveBytes()),
                       static_cast<double>(live_keys * (kKeySize + 100))),
                 MetricKind::kDetail);

    // Durability: close, reopen, and scan every key back.
    st->db.reset();
    Status s = st->Open();
    if (!s.ok()) {
      c->Count(false, live_keys);
      return;
    }
    ReadOptions scan;
    scan.fill_cache = false;  // the check must not grow the block cache
    std::unique_ptr<Iterator> it(st->db->NewIterator(scan));
    it->SeekToFirst();
    uint64_t checked = 0;
    uint64_t bad = 0;
    for (uint64_t k = 0; k < kKeys; k++) {
      const uint32_t lo = versions_->committed(k);
      const uint32_t hi = versions_->issued(k);
      uint64_t got = 0;
      const bool here = it->Valid() && ParseKey(it->key(), &got) && got == k;
      if (hi == 0) {
        if (here) {
          bad++;  // never written, must be absent
          it->Next();
        }
        continue;
      }
      checked++;
      if (!here) {
        bad += lo > 0 ? 1 : 0;  // absent is fine only if never acked
        continue;
      }
      bad += CheckValue(seed(), k, it->value(), lo, hi, Len100) ? 0 : 1;
      it->Next();
    }
    if (it->Valid() || !it->status().ok()) {
      bad++;  // keys beyond the key space, or a scan error
    }
    c->attempted += checked;
    c->failed += bad;
    metrics->Add("reopen_keys_checked", "count", static_cast<double>(checked),
                 MetricKind::kDetail);
  }
};

// point-read: a DB preloaded, compacted and warmed so it fits well inside
// the 32 MiB block cache; 2 readers issue uniform Gets of existing keys.
// The read path does all the work: table cache, block cache, SST reader,
// decryption and HMAC verification.
class PointReadWorkload final : public Workload {
 public:
  explicit PointReadWorkload(const RunConfig& config)
      : Workload(config, kKeys) {}
  static constexpr uint64_t kKeys = 60'000;

  Status Setup(Stack* st) override {
    Status s = OpenMonolith(st, 4 << 20, 32 << 20);
    if (s.ok()) s = Preload(st->db.get(), seed(), kKeys, Len100);
    if (s.ok()) s = st->db->Flush();
    if (s.ok()) s = st->db->CompactRange(nullptr, nullptr);
    st->db->WaitForIdle();
    // Warm: read every key once (two threads), checking each value.
    std::atomic<uint64_t> bad{0};
    std::vector<std::thread> threads;
    for (int t = 0; s.ok() && t < kClients; t++) {
      threads.emplace_back([&, t] {
        std::string value;
        for (uint64_t k = t; k < kKeys; k += kClients) {
          Status g = st->db->Get(ReadOptions(), KeyOf(k), &value);
          if (!g.ok() || !CheckValue(seed(), k, value, 0, 0, Len100)) {
            bad++;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    if (s.ok() && bad.load() > 0) {
      s = Status::Corruption("warm-up read back wrong values");
    }
    return s;
  }
  void Op(Stack* st, int, Client* c) override {
    Get(st, c, c->rnd.Uniform(kKeys), Len100);
  }
};

// mixgraph: the FAST'20 model (Zipfian 0.99 over scrambled keys, Pareto
// values of about 37 B, 83/14/3 Get/Put/Seek with 10 Nexts per Seek)
// over a dataset at least 4x the block cache, with flushes and
// compactions running: with a 1 MiB write buffer the 14 % of Puts flush
// every few seconds and compact L0 about once per 10 s.
class MixgraphWorkload final : public Workload {
 public:
  explicit MixgraphWorkload(const RunConfig& config)
      : Workload(config, kKeys) {}
  static constexpr uint64_t kKeys = 400'000;
  static constexpr size_t kBlockCache = 4 << 20;

  Status Setup(Stack* st) override {
    Status s = OpenMonolith(st, 1 << 20, kBlockCache);
    if (s.ok()) s = Preload(st->db.get(), seed(), kKeys, LenPareto);
    if (s.ok()) s = st->db->Flush();
    st->db->WaitForIdle();
    const uint64_t live = st->LiveBytes();
    if (s.ok() && live < 4 * kBlockCache) {
      s = Status::InvalidArgument("mixgraph dataset of " +
                                  std::to_string(live) +
                                  " B is smaller than 4x the block cache");
    }
    return s;
  }
  bool uses_zipf() const override { return true; }
  void Op(Stack* st, int, Client* c) override {
    const uint64_t k = c->zipf->NextScrambled();
    const uint64_t op = c->rnd.Uniform(100);
    if (op < 83) {
      Get(st, c, k, LenPareto);
    } else if (op < 97) {
      Put(st, c, k, LenPareto);
    } else {
      Seek(st, c, k, LenPareto);
    }
  }
};

// ds-ycsb: YCSB-A (50 % read, 50 % update, Zipfian, 1 KiB values) over
// the simulated DS fabric with the SimKds and offloaded compaction. The
// only workload that runs the ds and kds layers. A 1 MiB write buffer
// (as in the repo's DS benches) flushes about once a second, so each run
// spans many flush cycles, each waiting on the KDS for a new DEK.
class DsYcsbWorkload final : public Workload {
 public:
  explicit DsYcsbWorkload(const RunConfig& config) : Workload(config, kKeys) {}
  static constexpr uint64_t kKeys = 20'000;

  Status Setup(Stack* st) override {
    Status s = OpenDisaggregated(st, 1 << 20, 32 << 20);
    if (s.ok()) s = Preload(st->db.get(), seed(), kKeys, Len1K);
    if (s.ok()) s = st->db->Flush();
    if (s.ok()) s = st->db->CompactRange(nullptr, nullptr);
    st->db->WaitForIdle();
    return s;
  }
  bool uses_zipf() const override { return true; }
  void Op(Stack* st, int, Client* c) override {
    const uint64_t k = c->zipf->NextScrambled();
    if (c->rnd.Uniform(100) < 50) {
      Get(st, c, k, Len1K);
    } else {
      Put(st, c, k, Len1K);
    }
  }
  void AfterPhase(Stack* st, Client* c, MetricSet* metrics) override {
    Status s = st->db->Flush();
    st->db->WaitForIdle();
    c->Count(s.ok());
    metrics->Add("space_amp", "ratio",
                 Ratio(static_cast<double>(st->LiveBytes()),
                       static_cast<double>(kKeys * (kKeySize + 1024))),
                 MetricKind::kDetail);
  }
};

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "fill") {
    return std::make_unique<FillWorkload>(config);
  }
  if (config.workload == "point-read") {
    return std::make_unique<PointReadWorkload>(config);
  }
  if (config.workload == "mixgraph") {
    return std::make_unique<MixgraphWorkload>(config);
  }
  if (config.workload == "ds-ycsb") {
    return std::make_unique<DsYcsbWorkload>(config);
  }
  return nullptr;
}

/// Runs the clients for the phase, then the workload's drain, and
/// collects every counter the metrics need as deltas over the window.
Status RunPhase(Workload* w, Stack* st, double seconds, bool traced,
                uint64_t phase, PhaseResult* r) {
  Statistics* stats = st->options.statistics.get();
  uint64_t tickers_before[kNumTickers];
  for (size_t i = 0; i < kNumTickers; i++) {
    tickers_before[i] = stats->GetTickerCount(static_cast<Tickers>(i));
  }
  const double flush_before = HistogramSum(*stats, Histograms::kFlushMicros);
  const double compaction_before =
      HistogramSum(*stats, Histograms::kCompactionMicros);
  const uint64_t flushes_before =
      stats->GetHistogram(Histograms::kFlushMicros).Count();
  const DecoratorTotals deco_before = ReadDecoratorTotals();

  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < kClients; t++) {
    clients.push_back(std::make_unique<Client>(
        traced, Mix(Mix(w->seed(), phase), static_cast<uint64_t>(t))));
    if (w->uses_zipf()) {
      clients.back()->zipf = std::make_unique<ZipfianGenerator>(
          w->versions()->size(), 0.99, Mix(w->seed(), 1000 + phase * 8 + t));
    }
  }

  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; t++) {
    threads.emplace_back([w, st, t, traced, &stop, &clients] {
      SetPerfLevel(traced ? PerfLevel::kEnableTime : PerfLevel::kEnableCount);
      Client* c = clients[t].get();
      while (!stop.load(std::memory_order_relaxed)) {
        w->Op(st, t, c);
      }
      SetPerfLevel(PerfLevel::kEnableCount);
    });
  }
  // A traced phase also ends once kTraceSpanBudget spans are written,
  // which bounds the trace file and its read-back in memory however
  // fast the engine is.
  const uint64_t spans_before = stats->GetTickerCount(Tickers::kIoTraceSpans);
  for (uint64_t now = NowNanos(); now < deadline; now = NowNanos()) {
    if (traced && stats->GetTickerCount(Tickers::kIoTraceSpans) -
                          spans_before >= kTraceSpanBudget) {
      break;
    }
    SleepForMicros(std::min<uint64_t>(10'000, (deadline - now) / 1000 + 1));
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  Status s = w->Drain(st);
  r->window_s = static_cast<double>(NowNanos() - start) / 1e9;

  for (size_t i = 0; i < kNumTickers; i++) {
    r->tickers[i] =
        stats->GetTickerCount(static_cast<Tickers>(i)) - tickers_before[i];
  }
  r->flush_us = HistogramSum(*stats, Histograms::kFlushMicros) - flush_before;
  r->compaction_us =
      HistogramSum(*stats, Histograms::kCompactionMicros) - compaction_before;
  r->flushes =
      stats->GetHistogram(Histograms::kFlushMicros).Count() - flushes_before;
  const DecoratorTotals deco = ReadDecoratorTotals();
  r->decorators.write_bytes = deco.write_bytes - deco_before.write_bytes;
  r->decorators.kds_requests = deco.kds_requests - deco_before.kds_requests;
  r->decorators.kds_nanos = deco.kds_nanos - deco_before.kds_nanos;
  r->decorators.offload_jobs = deco.offload_jobs - deco_before.offload_jobs;
  r->decorators.offload_nanos = deco.offload_nanos - deco_before.offload_nanos;

  for (auto& c : clients) {
    for (int k = 0; k < kNumKinds; k++) {
      r->ops[k] += c->lat[k].count();
      r->lat[k].Merge(c->lat[k]);
      r->perf[k].Merge(c->perf[k]);
      r->io[k].Add(c->io[k], IoTally());
    }
    r->attempted += c->attempted;
    r->failed += c->failed;
    r->user_bytes += c->user_bytes;
  }
  return s;
}

void EndToEndMetrics(const PhaseResult& r, MetricSet* m) {
  const uint64_t ops = r.total_ops();
  m->Add("ops_s", "1/s", Ratio(ops, r.window_s), MetricKind::kEndToEnd, ops);
  LatencyHistogram all;
  for (const LatencyHistogram& kind : r.lat) {
    all.Merge(kind);
  }
  m->Add("op_p95_us", "us", all.PercentileUs(95), MetricKind::kEndToEnd, ops);
  for (int k = 0; k < kNumKinds; k++) {
    const uint64_t n = r.lat[k].count();
    if (n > 0) {
      const std::string kind = kKindName[k];
      m->Add(kind + "_p50_us", "us", r.lat[k].PercentileUs(50),
             MetricKind::kDetail, n);
      m->Add(kind + "_p99_us", "us", r.lat[k].PercentileUs(99),
             MetricKind::kDetail, n);
    }
  }
}

// Span types whose self time the traced run reports (0 where a type
// does not fire in a workload).
const SpanType kReportedSpans[] = {
    SpanType::kDbGet,        SpanType::kDbWrite,       SpanType::kDbSeek,
    SpanType::kDbFlush,      SpanType::kFlushJob,      SpanType::kCompactionJob,
    SpanType::kWalAppend,    SpanType::kWalRoll,       SpanType::kFileEncrypt,
    SpanType::kFileDecrypt,  SpanType::kChunkEncrypt,  SpanType::kKdsRpc,
    SpanType::kDsTransfer,   SpanType::kOffloadRpc,    SpanType::kCompactionRpc,
    SpanType::kIoRead,       SpanType::kIoWrite,       SpanType::kIoSync,
};

void LayerMetrics(const PhaseResult& r, const TraceProfile& profile,
                  double untraced_ops_s, MetricSet* m) {
  const double gets = static_cast<double>(r.ops[kGet]);
  const double puts = static_cast<double>(r.ops[kPut]);
  const double seeks = static_cast<double>(r.ops[kSeek]);
  const double ops = static_cast<double>(r.total_ops());
  const double user_bytes = static_cast<double>(r.user_bytes);
  auto t = [&r](Tickers ticker) {
    return static_cast<double>(r.ticker(ticker));
  };
  auto add = [m](const char* name, const char* unit, double v) {
    m->Add(name, unit, v, MetricKind::kLayer);
  };
  const PerfSums& get = r.perf[kGet];
  const PerfSums& put = r.perf[kPut];

  add("lsm.table_opens_per_get", "count", Ratio(r.io[kGet].sst_opens, gets));
  add("lsm.block_cache_hit_ratio", "ratio",
      Ratio(t(Tickers::kLsmBlockCacheHit),
            t(Tickers::kLsmBlockCacheHit) + t(Tickers::kLsmBlockCacheMiss)));
  add("lsm.block_reads_per_get", "count", Ratio(get.block_read_count, gets));
  add("lsm.write_group_size_avg", "count",
      Ratio(t(Tickers::kLsmWriteGroupSize), t(Tickers::kLsmWriteGroups)));
  add("lsm.memtable_us_per_put", "us", Ratio(put.memtable_insert_micros, puts));
  add("lsm.wal_append_us_per_put", "us", Ratio(put.wal_write_micros, puts));
  add("lsm.stall_us_per_put", "us", Ratio(t(Tickers::kLsmStallMicros), puts));
  add("lsm.flush_busy_frac", "ratio", Ratio(r.flush_us / 1e6, r.window_s));
  add("lsm.compaction_busy_frac", "ratio",
      Ratio(r.compaction_us / 1e6, r.window_s));
  add("io.write_bytes_per_user_byte", "ratio",
      Ratio(r.decorators.write_bytes, user_bytes));
  add("lsm.seek_us_per_seek", "us",
      Ratio(r.perf[kSeek].iter_seek_micros, seeks));

  add("crypto.decrypt_bytes_per_get", "B", Ratio(get.decrypt_bytes, gets));
  add("crypto.hmac_verifies_per_get", "count",
      Ratio(get.hmac_verify_count, gets));
  add("crypto.decrypt_us_per_get", "us", Ratio(get.decrypt_micros, gets));
  add("crypto.hmac_us_per_get", "us", Ratio(get.hmac_micros, gets));
  add("crypto.encrypt_bytes_per_user_byte", "ratio",
      Ratio(t(Tickers::kCryptoBytesEncrypted), user_bytes));
  // The engine keeps no PerfContext timer for encryption, so the write
  // side's cipher time comes from the encryption spans under client ops.
  auto client_span_us = [&profile](SpanType type) {
    auto it = profile.client_tree_us.find(SpanTypeName(type));
    return it == profile.client_tree_us.end() ? 0.0
                                              : static_cast<double>(it->second);
  };
  add("crypto.encrypt_us_per_put", "us",
      Ratio(client_span_us(SpanType::kFileEncrypt) +
                client_span_us(SpanType::kWalEncrypt),
            puts));
  add("crypto.hmac_computes_per_put", "count",
      Ratio(t(Tickers::kCryptoHmacComputed), puts));

  add("shield.wal_buffer_drains_per_put", "count",
      Ratio(t(Tickers::kShieldWalBufferDrains), puts));
  add("shield.dek_cache_hit_ratio", "ratio",
      Ratio(t(Tickers::kShieldDekCacheHit),
            t(Tickers::kShieldDekCacheHit) + t(Tickers::kShieldDekCacheMiss)));
  add("shield.chunk_shards_per_flush", "count",
      Ratio(t(Tickers::kShieldChunkEncryptShards), r.flushes));

  add("kds.requests_per_kop", "count",
      Ratio(r.decorators.kds_requests, ops / 1000.0));
  add("kds.wait_us_per_op", "us", Ratio(r.decorators.kds_nanos / 1000.0, ops));

  add("ds.rpcs_per_get", "count", Ratio(r.io[kGet].rpcs, gets));
  add("ds.network_bytes_per_op", "B", Ratio(t(Tickers::kDsNetworkBytes), ops));
  add("ds.network_wait_us_per_op", "us",
      Ratio(t(Tickers::kDsNetworkWaitMicros), ops));
  add("ds.offload_jobs_per_kop", "count",
      Ratio(r.decorators.offload_jobs, ops / 1000.0));
  add("ds.offload_rpc_ms_per_job", "ms",
      Ratio(r.decorators.offload_nanos / 1e6, r.decorators.offload_jobs));

  add("io.sst_read_ops_per_get", "count", Ratio(r.io[kGet].sst_reads, gets));
  add("io.read_us_per_get", "us", Ratio(r.io[kGet].read_nanos / 1000.0, gets));

  for (SpanType type : kReportedSpans) {
    const std::string name = SpanTypeName(type);
    auto it = profile.self_us.find(name);
    const double self = it == profile.self_us.end() ? 0 : it->second;
    m->Add("span." + name + ".self_us_per_op", "us", Ratio(self, ops),
           MetricKind::kLayer);
  }
  double client_us = 0;
  for (int k = 0; k < kNumKinds; k++) {
    client_us += static_cast<double>(r.lat[k].sum_ns()) / 1000.0;
  }
  add("db.unattributed_us_per_op", "us",
      Ratio(client_us - static_cast<double>(profile.client_root_us), ops));
  add("trace.overhead_frac", "ratio",
      1.0 - Ratio(Ratio(ops, r.window_s), untraced_ops_s));
  m->Add("trace.spans", "count", static_cast<double>(profile.spans),
         MetricKind::kDetail);
}

void Tally(const PhaseResult& r, RunOutcome* out) {
  out->attempted += r.attempted;
  out->failed += r.failed;
}

// Untraced run: repeated set-ups (median set-up time), then one timed
// phase of `seconds` on the last one.
Status UntracedRun(const RunConfig& config, Workload* w, RunOutcome* out) {
  std::vector<double> setup_s;
  std::unique_ptr<Stack> st;
  uint64_t setup_nanos = 0;
  while (setup_s.size() < kMinSetups ||
         (setup_nanos < kSetupBudgetNanos && setup_s.size() < kMaxSetups)) {
    st.reset();
    // Hand the torn-down set-up's memory back to the OS, so that
    // rss_peak_mb measures one DB rather than the allocator's leftovers
    // from however many set-ups fit the budget.
    malloc_trim(0);
    st = std::make_unique<Stack>();
    w->ResetVersions();
    const uint64_t start = NowNanos();
    Status s = w->Setup(st.get());
    const uint64_t nanos = NowNanos() - start;
    setup_nanos += nanos;
    setup_s.push_back(static_cast<double>(nanos) / 1e9);
    if (!s.ok()) {
      return s;
    }
  }
  std::sort(setup_s.begin(), setup_s.end());

  PhaseResult r;
  Status s = RunPhase(w, st.get(), config.seconds, false, 0, &r);
  if (!s.ok()) {
    return s;
  }
  Client after(false, 0);
  w->AfterPhase(st.get(), &after, &out->metrics);
  r.attempted += after.attempted;
  r.failed += after.failed;
  Tally(r, out);

  EndToEndMetrics(r, &out->metrics);
  out->metrics.Add("rss_peak_mb", "MB", RssPeakMb(), MetricKind::kEndToEnd);
  out->metrics.Add("setup_s", "s", setup_s[setup_s.size() / 2],
                   MetricKind::kEndToEnd, setup_s.size());
  return Status::OK();
}

// Traced run: the same workload and seed, half the time untraced (the
// overhead baseline) and half with PerfLevel::kEnableTime, timing
// decorators and DB::StartTrace on. fill gets a fresh DB for the traced
// half so both halves start empty; the others continue on the same DB.
Status TracedRun(const RunConfig& config, Workload* w, RunOutcome* out) {
  const double half = config.seconds / 2;
  auto st = std::make_unique<Stack>();
  w->ResetVersions();
  Status s = w->Setup(st.get());
  if (!s.ok()) {
    return s;
  }
  PhaseResult base;
  s = RunPhase(w, st.get(), half, false, 0, &base);
  if (!s.ok()) {
    return s;
  }
  Client after(false, 0);
  MetricSet untraced;
  w->AfterPhase(st.get(), &after, &untraced);
  base.attempted += after.attempted;
  base.failed += after.failed;
  Tally(base, out);
  const double untraced_ops_s = Ratio(base.total_ops(), base.window_s);
  out->metrics.Add("untraced_ops_s", "1/s", untraced_ops_s,
                   MetricKind::kDetail, base.total_ops());

  if (config.workload == "fill") {
    st.reset();
    st = std::make_unique<Stack>();
    w->ResetVersions();
    s = w->Setup(st.get());
    if (!s.ok()) {
      return s;
    }
  }

  std::unique_ptr<Env> trace_env = NewMemEnv();
  TraceOptions trace_options;
  trace_options.trace_env = trace_env.get();
  const std::string trace_path = "/perfbench.trace";
  s = st->db->StartTrace(trace_options, trace_path);
  if (!s.ok()) {
    return s;
  }
  SetDecoratorTiming(true);
  PhaseResult traced;
  s = RunPhase(w, st.get(), half, true, 1, &traced);
  SetDecoratorTiming(false);
  Status end = st->db->EndTrace();
  if (!s.ok()) {
    return s;
  }
  if (!end.ok()) {
    return end;
  }
  Client after_traced(false, 0);
  w->AfterPhase(st.get(), &after_traced, &out->metrics);
  traced.attempted += after_traced.attempted;
  traced.failed += after_traced.failed;
  Tally(traced, out);

  TraceProfile profile;
  s = ProfileTrace(trace_env.get(), trace_path, &profile);
  if (!s.ok()) {
    return s;
  }
  if (profile.truncated) {
    return Status::Corruption("trace file read back truncated");
  }
  LayerMetrics(traced, profile, untraced_ops_s, &out->metrics);
  MeasureCryptoCeilings(&out->metrics);
  return Status::OK();
}

}  // namespace

void RunWorkload(const RunConfig& config, RunOutcome* out) {
  std::unique_ptr<Workload> w = MakeWorkload(config);
  if (w == nullptr) {
    out->error = "unknown workload: " + config.workload;
    return;
  }
  Status s = config.trace ? TracedRun(config, w.get(), out)
                          : UntracedRun(config, w.get(), out);
  if (!s.ok()) {
    out->error = s.ToString();
    return;
  }
  out->metrics.Add("failed_ops_frac", "ratio",
                   Ratio(out->failed, out->attempted), MetricKind::kDetail,
                   out->attempted);
  out->correct = out->failed == 0 && out->attempted > 0;
}

Status CheckTracedGetSelfTimes() {
  Stack st;
  Status s = OpenMonolith(&st, 4 << 20, 32 << 20);
  if (s.ok()) s = Preload(st.db.get(), 7, 1000, Len100);
  if (s.ok()) s = st.db->Flush();
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<Env> trace_env = NewMemEnv();
  TraceOptions trace_options;
  trace_options.trace_env = trace_env.get();
  s = st.db->StartTrace(trace_options, "/get.trace");
  std::string value;
  if (s.ok()) s = st.db->Get(ReadOptions(), KeyOf(500), &value);
  Status end = st.db->EndTrace();
  if (!s.ok()) return s;
  if (!end.ok()) return end;
  if (!CheckValue(7, 500, value, 0, 0, Len100)) {
    return Status::Corruption("traced Get returned a wrong value");
  }
  TraceProfile profile;
  s = ProfileTrace(trace_env.get(), "/get.trace", &profile);
  if (!s.ok()) {
    return s;
  }
  if (profile.client_roots != 1 || profile.spans < 2) {
    return Status::Corruption(
        "expected one db.get root with child spans, got " +
        std::to_string(profile.client_roots) + " roots, " +
        std::to_string(profile.spans) + " spans");
  }
  if (profile.client_tree_self_us != profile.client_root_us) {
    return Status::Corruption(
        "self times sum to " + std::to_string(profile.client_tree_self_us) +
        " us but the db.get root span lasted " +
        std::to_string(profile.client_root_us) + " us");
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace shield

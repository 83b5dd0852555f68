// Bench-side decorators: an EnvWrapper, a Kds and a CompactionService
// that count (and, in the traced run, time) the engine's calls into
// them. They sit below SHIELD's encryption layer, so they see the
// physical, encrypted I/O.

#include <atomic>

#include "perfbench.h"
#include "util/clock.h"

namespace shield {
namespace perfbench {

namespace {

std::atomic<bool> g_timing{false};
std::atomic<uint64_t> g_write_bytes{0};
std::atomic<uint64_t> g_kds_requests{0};
std::atomic<uint64_t> g_kds_nanos{0};
std::atomic<uint64_t> g_offload_jobs{0};
std::atomic<uint64_t> g_offload_nanos{0};

thread_local IoTally t_io;

bool IsSst(const std::string& fname) {
  return fname.size() >= 4 && fname.compare(fname.size() - 4, 4, ".sst") == 0;
}

bool Timing() { return g_timing.load(std::memory_order_relaxed); }

void Bump(std::atomic<uint64_t>* counter, uint64_t n) {
  counter->fetch_add(n, std::memory_order_relaxed);
}

class CountingRandomAccessFile final : public RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<RandomAccessFile> base, bool sst,
                           bool fabric)
      : base_(std::move(base)), sst_(sst), fabric_(fabric) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    IoTally& io = t_io;
    io.sst_reads += sst_ ? 1 : 0;
    io.rpcs += fabric_ ? 1 : 0;
    if (!Timing()) {
      return base_->Read(offset, n, result, scratch);
    }
    const uint64_t start = NowNanos();
    Status s = base_->Read(offset, n, result, scratch);
    io.read_nanos += NowNanos() - start;
    return s;
  }
  Status Size(uint64_t* size) const override { return base_->Size(size); }
  const crypto::BlockAuthenticator* block_authenticator() const override {
    return base_->block_authenticator();
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  const bool sst_;
  const bool fabric_;
};

class CountingSequentialFile final : public SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<SequentialFile> base, bool fabric)
      : base_(std::move(base)), fabric_(fabric) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    IoTally& io = t_io;
    io.rpcs += fabric_ ? 1 : 0;
    if (!Timing()) {
      return base_->Read(n, result, scratch);
    }
    const uint64_t start = NowNanos();
    Status s = base_->Read(n, result, scratch);
    io.read_nanos += NowNanos() - start;
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }
  const crypto::BlockAuthenticator* block_authenticator() const override {
    return base_->block_authenticator();
  }

 private:
  std::unique_ptr<SequentialFile> base_;
  const bool fabric_;
};

class CountingWritableFile final : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> base, bool fabric)
      : base_(std::move(base)), fabric_(fabric) {}

  Status Append(const Slice& data) override {
    Bump(&g_write_bytes, data.size());
    return base_->Append(data);
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    t_io.rpcs += fabric_ ? 1 : 0;
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }
  uint64_t GetFileSize() const override { return base_->GetFileSize(); }
  const crypto::BlockAuthenticator* block_authenticator() const override {
    return base_->block_authenticator();
  }

 private:
  std::unique_ptr<WritableFile> base_;
  const bool fabric_;
};

class CountingEnv final : public EnvWrapper {
 public:
  CountingEnv(Env* target, bool fabric) : EnvWrapper(target), fabric_(fabric) {}

  Status NewSequentialFile(const std::string& f,
                           std::unique_ptr<SequentialFile>* r) override {
    Rpc();
    std::unique_ptr<SequentialFile> base;
    Status s = target()->NewSequentialFile(f, &base);
    if (s.ok()) {
      *r = std::make_unique<CountingSequentialFile>(std::move(base), fabric_);
    }
    return s;
  }
  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    Rpc();
    const bool sst = IsSst(f);
    t_io.sst_opens += sst ? 1 : 0;
    std::unique_ptr<RandomAccessFile> base;
    Status s = target()->NewRandomAccessFile(f, &base);
    if (s.ok()) {
      *r = std::make_unique<CountingRandomAccessFile>(std::move(base), sst,
                                                      fabric_);
    }
    return s;
  }
  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override {
    Rpc();
    std::unique_ptr<WritableFile> base;
    Status s = target()->NewWritableFile(f, &base);
    if (s.ok()) {
      *r = std::make_unique<CountingWritableFile>(std::move(base), fabric_);
    }
    return s;
  }
  bool FileExists(const std::string& f) override {
    Rpc();
    return target()->FileExists(f);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* r) override {
    Rpc();
    return target()->GetChildren(dir, r);
  }
  Status RemoveFile(const std::string& f) override {
    Rpc();
    return target()->RemoveFile(f);
  }
  Status CreateDirIfMissing(const std::string& d) override {
    Rpc();
    return target()->CreateDirIfMissing(d);
  }
  Status RemoveDir(const std::string& d) override {
    Rpc();
    return target()->RemoveDir(d);
  }
  Status GetFileSize(const std::string& f, uint64_t* size) override {
    Rpc();
    return target()->GetFileSize(f, size);
  }
  Status RenameFile(const std::string& s, const std::string& t) override {
    Rpc();
    return target()->RenameFile(s, t);
  }

 private:
  void Rpc() { t_io.rpcs += fabric_ ? 1 : 0; }

  const bool fabric_;
};

class TimedKds final : public Kds {
 public:
  explicit TimedKds(std::shared_ptr<Kds> target) : target_(std::move(target)) {}

  Status CreateDek(const std::string& server_id, crypto::CipherKind kind,
                   Dek* out) override {
    return Timed([&] { return target_->CreateDek(server_id, kind, out); });
  }
  Status GetDek(const std::string& server_id, const DekId& id,
                Dek* out) override {
    return Timed([&] { return target_->GetDek(server_id, id, out); });
  }
  Status DeleteDek(const std::string& server_id, const DekId& id) override {
    return Timed([&] { return target_->DeleteDek(server_id, id); });
  }
  Status RewrapDek(const std::string& server_id, const DekId& id,
                   const std::string& target_server_id, Dek* out) override {
    return Timed([&] {
      return target_->RewrapDek(server_id, id, target_server_id, out);
    });
  }

 private:
  template <typename F>
  Status Timed(F&& call) {
    const uint64_t start = NowNanos();
    Status s = call();
    Bump(&g_kds_nanos, NowNanos() - start);
    Bump(&g_kds_requests, 1);
    return s;
  }

  std::shared_ptr<Kds> target_;
};

class TimedCompactionService final : public CompactionService {
 public:
  explicit TimedCompactionService(CompactionService* target)
      : target_(target) {}

  Status RunCompaction(const CompactionJobSpec& job,
                       CompactionJobResult* result) override {
    const uint64_t start = NowNanos();
    Status s = target_->RunCompaction(job, result);
    Bump(&g_offload_nanos, NowNanos() - start);
    Bump(&g_offload_jobs, 1);
    return s;
  }

 private:
  CompactionService* const target_;
};

}  // namespace

void SetDecoratorTiming(bool on) {
  g_timing.store(on, std::memory_order_relaxed);
}

void IoTally::Add(const IoTally& after, const IoTally& before) {
  sst_opens += after.sst_opens - before.sst_opens;
  sst_reads += after.sst_reads - before.sst_reads;
  read_nanos += after.read_nanos - before.read_nanos;
  rpcs += after.rpcs - before.rpcs;
}

IoTally& ThreadIo() { return t_io; }

DecoratorTotals ReadDecoratorTotals() {
  DecoratorTotals t;
  t.write_bytes = g_write_bytes.load(std::memory_order_relaxed);
  t.kds_requests = g_kds_requests.load(std::memory_order_relaxed);
  t.kds_nanos = g_kds_nanos.load(std::memory_order_relaxed);
  t.offload_jobs = g_offload_jobs.load(std::memory_order_relaxed);
  t.offload_nanos = g_offload_nanos.load(std::memory_order_relaxed);
  return t;
}

std::unique_ptr<Env> NewCountingEnv(Env* target, bool fabric) {
  return std::make_unique<CountingEnv>(target, fabric);
}

std::shared_ptr<Kds> NewTimedKds(std::shared_ptr<Kds> target) {
  return std::make_shared<TimedKds>(std::move(target));
}

std::unique_ptr<CompactionService> NewTimedCompactionService(
    CompactionService* target) {
  return std::make_unique<TimedCompactionService>(target);
}

}  // namespace perfbench
}  // namespace shield

// Host ceilings: the crypto/ public API and memcpy timed on their own,
// so the per-get and per-put crypto times can be set against what this
// host can do at best.

#include <algorithm>
#include <cstring>
#include <functional>

#include "crypto/cipher.h"
#include "crypto/hmac.h"
#include "perfbench.h"
#include "util/clock.h"
#include "util/crc32c.h"

namespace shield {
namespace perfbench {

namespace {

constexpr int kRounds = 5;
constexpr uint64_t kRoundNanos = 10'000'000;  // 10 ms per round

volatile uint64_t g_sink = 0;

// Runs `op` repeatedly for kRounds rounds of ~10 ms and returns the
// median nanoseconds per call.
double MedianNanosPerCall(const std::function<void()>& op) {
  std::vector<double> per_call;
  for (int r = 0; r < kRounds; r++) {
    uint64_t calls = 0;
    const uint64_t start = NowNanos();
    uint64_t now = start;
    while (now - start < kRoundNanos) {
      for (int i = 0; i < 16; i++) {
        op();
      }
      calls += 16;
      now = NowNanos();
    }
    per_call.push_back(static_cast<double>(now - start) /
                       static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[kRounds / 2];
}

double Gbps(size_t bytes, double nanos_per_call) {
  return static_cast<double>(bytes) / nanos_per_call;  // bytes/ns == GB/s
}

}  // namespace

void MeasureCryptoCeilings(MetricSet* metrics) {
  const std::string key(16, 'k');
  const std::string nonce(16, 'n');
  std::unique_ptr<crypto::StreamCipher> cipher;
  crypto::NewStreamCipher(crypto::CipherKind::kAes128Ctr, key, nonce, &cipher);

  std::string buf(64 * 1024, 'x');
  for (size_t i = 0; i < buf.size(); i++) {
    buf[i] = static_cast<char>(i * 131);
  }
  uint64_t offset = 0;
  for (size_t size : {size_t{4096}, size_t{64 * 1024}}) {
    const double ns = MedianNanosPerCall([&] {
      cipher->CryptAt(offset, buf.data(), size);
      offset += size;
      g_sink = g_sink + static_cast<uint8_t>(buf[0]);
    });
    metrics->Add(size == 4096 ? "crypto.aes_ctr_4k_gbps"
                              : "crypto.aes_ctr_64k_gbps",
                 "GB/s", Gbps(size, ns), MetricKind::kLayer);
  }

  // One small encryption as the unbuffered WAL path pays it: a fresh
  // cipher context plus 16 bytes of keystream.
  char small[16];
  std::memcpy(small, buf.data(), sizeof(small));
  metrics->Add("crypto.encrypt_16b_ns", "ns", MedianNanosPerCall([&] {
                 std::unique_ptr<crypto::StreamCipher> fresh;
                 crypto::NewStreamCipher(crypto::CipherKind::kAes128Ctr, key,
                                         nonce, &fresh);
                 fresh->CryptAt(0, small, sizeof(small));
                 g_sink = g_sink + static_cast<uint8_t>(small[0]);
               }),
               MetricKind::kLayer);

  // HMAC-SHA256 over a 4 KiB block with the key schedule hoisted, as
  // the block authenticator computes every tag.
  const crypto::HmacSha256Keyed mac(key);
  uint8_t tag[crypto::Sha256::kDigestSize];
  metrics->Add("crypto.hmac_sha256_4k_gbps", "GB/s",
               Gbps(4096, MedianNanosPerCall([&] {
                      crypto::Sha256 inner = mac.Begin();
                      inner.Update(buf.data(), 4096);
                      mac.Finish(&inner, tag);
                      g_sink = g_sink + tag[0];
                    })),
               MetricKind::kLayer);

  metrics->Add("crypto.crc32c_gbps", "GB/s",
               Gbps(4096, MedianNanosPerCall([&] {
                      g_sink = g_sink + crc32c::Value(buf.data(), 4096);
                    })),
               MetricKind::kLayer);

  std::string dst(4096, '\0');
  metrics->Add("crypto.memcpy_gbps", "GB/s",
               Gbps(4096, MedianNanosPerCall([&] {
                      std::memcpy(dst.data(), buf.data() + (g_sink & 1), 4096);
                      g_sink = g_sink + static_cast<uint8_t>(dst[100]);
                    })),
               MetricKind::kLayer);
}

}  // namespace perfbench
}  // namespace shield

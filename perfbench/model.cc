// Key/value model: every value is recomputable from (seed, key, version).

#include <cstdio>
#include <cstring>

#include "perfbench.h"
#include "util/coding.h"

namespace shield {
namespace perfbench {

namespace {

constexpr size_t kVersionBytes = 4;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t FillerSeed(uint64_t seed, uint64_t index, uint32_t version) {
  uint64_t state = seed;
  uint64_t h = SplitMix(&state) ^ index;
  state = h;
  h = SplitMix(&state) ^ version;
  state = h;
  return SplitMix(&state);
}

// Writes filler bytes [kVersionBytes, len) into `out`, 8 at a time.
void Filler(uint64_t seed, uint64_t index, uint32_t version, char* out,
            size_t n) {
  uint64_t state = FillerSeed(seed, index, version);
  while (n > 0) {
    const uint64_t word = SplitMix(&state);
    const size_t take = n < sizeof(word) ? n : sizeof(word);
    std::memcpy(out, &word, take);
    out += take;
    n -= take;
  }
}

}  // namespace

std::string KeyOf(uint64_t index) {
  char buf[kKeySize + 1];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(index));
  return std::string(buf, kKeySize);
}

bool ParseKey(const Slice& key, uint64_t* index) {
  if (key.size() != kKeySize) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 0; i < kKeySize; i++) {
    const char c = key.data()[i];
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = v;
  return true;
}

void MakeValue(uint64_t seed, uint64_t index, uint32_t version, size_t len,
               std::string* out) {
  if (len < kVersionBytes) {
    len = kVersionBytes;
  }
  out->resize(len);
  EncodeFixed32(out->data(), version);
  Filler(seed, index, version, out->data() + kVersionBytes,
         len - kVersionBytes);
}

bool CheckValue(uint64_t seed, uint64_t index, const Slice& value,
                uint32_t min_version, uint32_t max_version, LengthFn len_of) {
  if (value.size() < kVersionBytes) {
    return false;
  }
  const uint32_t version = DecodeFixed32(value.data());
  if (version < min_version || version > max_version) {
    return false;
  }
  size_t len = len_of(seed, index, version);
  if (len < kVersionBytes) {
    len = kVersionBytes;
  }
  if (value.size() != len) {
    return false;
  }
  char expected[256];
  uint64_t state = FillerSeed(seed, index, version);
  const char* got = value.data() + kVersionBytes;
  size_t n = len - kVersionBytes;
  while (n > 0) {
    // Regenerate the filler in chunks that stay in the stack buffer.
    size_t chunk = n < sizeof(expected) ? n : sizeof(expected);
    for (size_t off = 0; off < chunk; off += 8) {
      const uint64_t word = SplitMix(&state);
      const size_t take = chunk - off < 8 ? chunk - off : 8;
      std::memcpy(expected + off, &word, take);
    }
    if (std::memcmp(expected, got, chunk) != 0) {
      return false;
    }
    got += chunk;
    n -= chunk;
  }
  return true;
}

}  // namespace perfbench
}  // namespace shield

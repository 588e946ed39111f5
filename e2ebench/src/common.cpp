#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/rng.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"

namespace e2e {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Result::tally(std::int64_t n, std::int64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0 && failures.size() < 8) failures.push_back(what);
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kIngest: return "ingest";
    case Layer::kEngine: return "engine";
    case Layer::kSchedPass: return "sched.pass";
    case Layer::kSchedSubmit: return "sched.submit";
    case Layer::kSchedJobEnd: return "sched.job_end";
    case Layer::kAlloc: return "alloc";
    case Layer::kSinkTrace: return "sink.trace";
    case Layer::kSinkSeries: return "sink.timeseries";
    case Layer::kMetrics: return "metrics.report";
    case Layer::kCount: break;
  }
  return "?";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string read_file(const std::string& path) {  // small files only
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// FIPS 180-4 SHA-256, fed incrementally so files are hashed in chunks.
namespace {

class Sha256 {
 public:
  void update(const char* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      block_[fill_++] = static_cast<unsigned char>(data[i]);
      if (fill_ == 64) {
        compress();
        fill_ = 0;
      }
    }
    bytes_ += size;
  }

  std::string hex() {
    const std::uint64_t bit_len = bytes_ * 8;
    const char pad = static_cast<char>(0x80);
    update(&pad, 1);
    const char zero = 0;
    while (fill_ != 56) update(&zero, 1);
    for (int i = 7; i >= 0; --i) {
      const char byte = static_cast<char>((bit_len >> (8 * i)) & 0xff);
      update(&byte, 1);
    }
    static const char* digits = "0123456789abcdef";
    std::string out;
    for (const std::uint32_t word : h_) {
      for (int shift = 28; shift >= 0; shift -= 4) {
        out.push_back(digits[(word >> shift) & 0xf]);
      }
    }
    return out;
  }

 private:
  static std::uint32_t rotr(std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  }

  void compress() {
    static constexpr std::array<std::uint32_t, 64> k = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
        0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
        0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
        0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
        0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
        0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
        0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
        0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
        0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
        0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    std::array<std::uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(block_[4 * i]) << 24) |
             (std::uint32_t(block_[4 * i + 1]) << 16) |
             (std::uint32_t(block_[4 * i + 2]) << 8) |
             std::uint32_t(block_[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    auto [a, b, c, d, e, f, g, hh] = h_;
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = hh + s1 + ch + k[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + s0 + maj;
    }
    const std::uint32_t out[8] = {a, b, c, d, e, f, g, hh};
    for (int i = 0; i < 8; ++i) h_[i] += out[i];
  }

  std::array<std::uint32_t, 8> h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                     0xa54ff53a, 0x510e527f, 0x9b05688c,
                                     0x1f83d9ab, 0x5be0cd19};
  std::array<unsigned char, 64> block_{};
  std::size_t fill_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace

std::string sha256_hex(const std::string& bytes) {
  Sha256 hash;
  hash.update(bytes.data(), bytes.size());
  return hash.hex();
}

std::string sha256_file(const std::string& path, std::int64_t* size) {
  std::ifstream in(path, std::ios::binary);
  Sha256 hash;
  std::vector<char> chunk(1 << 16);
  std::int64_t total = 0;
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    hash.update(chunk.data(), got);
    total += static_cast<std::int64_t>(got);
  }
  if (size) *size = total;
  return hash.hex();
}

pjsb::swf::Trace lublin_trace(std::uint64_t seed, std::size_t jobs,
                              std::int64_t nodes, double load) {
  pjsb::util::Rng rng(seed);
  pjsb::workload::ModelConfig config;
  config.jobs = jobs;
  config.machine_nodes = nodes;
  config.mean_interarrival = 300;
  const auto trace = pjsb::workload::generate(
      pjsb::workload::ModelKind::kLublin99, config, rng);
  return pjsb::workload::scale_to_load(trace, load, nodes);
}

}  // namespace e2e

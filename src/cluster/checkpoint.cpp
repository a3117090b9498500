#include "cluster/checkpoint.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "runtime/distribution_manager.hpp"

namespace lobster::cluster {

namespace {

constexpr std::size_t kMaxStringBytes = 4096;
constexpr std::size_t kMaxVectorEntries = 1u << 26;

/// Slicing-by-8 tables for the reflected IEEE polynomial: tables[0] is the
/// classic bytewise table, and tables[k][b] is the CRC of byte b followed by
/// k zero bytes, so one step folds eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian load, independent of the host's byte order.
std::uint32_t load_le32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

class Writer {
 public:
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void boolean(bool v) {
    const std::uint8_t b = v ? 1 : 0;
    raw(&b, sizeof b);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  std::vector<std::byte>& bytes() { return out_; }

 private:
  void raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::byte*>(data);
    out_.insert(out_.end(), p, p + size);
  }
  std::vector<std::byte> out_;
};

/// Bounds-checked reader: every read that would run past the buffer flips
/// `ok` and returns zeros, so deserialize() can finish the walk and report
/// one kCorrupt instead of reading garbage.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::uint16_t u16() { return scalar<std::uint16_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  double f64() { return scalar<double>(); }
  bool boolean() { return scalar<std::uint8_t>() != 0; }

  std::string str() {
    const std::uint32_t size = u32();
    if (size > kMaxStringBytes || !take(size)) {
      ok_ = false;
      return {};
    }
    std::string s(size, '\0');
    std::memcpy(s.data(), bytes_.data() + pos_ - size, size);
    return s;
  }

  bool ok() const { return ok_; }
  void fail() { ok_ = false; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <typename T>
  T scalar() {
    if (!take(sizeof(T))) {
      ok_ = false;
      return T{};
    }
    T v;
    std::memcpy(&v, bytes_.data() + pos_ - sizeof(T), sizeof(T));
    return v;
  }

  bool take(std::size_t size) {
    if (bytes_.size() - pos_ < size) return false;
    pos_ += size;
    return true;
  }

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Reads a count, then that many elements of `wire_bytes` each. A count
/// past kMaxVectorEntries, or one the remaining bytes cannot hold, fails
/// the reader before anything is reserved.
template <typename T, typename Fn>
void read_vector(Reader& reader, std::size_t wire_bytes, std::vector<T>& out, Fn&& element) {
  const std::uint32_t count = reader.u32();
  if (!reader.ok()) return;
  if (count > kMaxVectorEntries || count * wire_bytes > reader.remaining()) {
    reader.fail();
    return;
  }
  out.reserve(count);
  for (std::uint32_t i = 0; i < count && reader.ok(); ++i) out.push_back(element(reader));
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ static_cast<std::uint8_t>(*p)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::byte> serialize(const JobCheckpoint& checkpoint) {
  Writer w;
  w.u32(JobCheckpoint::kMagic);
  w.u16(JobCheckpoint::kVersion);
  w.u32(checkpoint.job_id);
  w.str(checkpoint.name);
  w.u64(checkpoint.dataset_fingerprint);
  w.u64(checkpoint.sampler_seed);
  w.u32(checkpoint.epoch);
  w.u64(checkpoint.cursor);
  w.u64(checkpoint.delivered_total);
  w.u64(checkpoint.delivery_digest);
  w.u16(checkpoint.width);
  w.u16(checkpoint.gpus_per_node);
  w.u32(checkpoint.batch_size);

  w.u32(static_cast<std::uint32_t>(checkpoint.quotas.size()));
  for (const std::uint32_t q : checkpoint.quotas) w.u32(q);

  w.boolean(checkpoint.has_balancer);
  if (checkpoint.has_balancer) {
    const auto& b = checkpoint.balancer;
    w.u32(static_cast<std::uint32_t>(b.devices.size()));
    for (const auto& d : b.devices) {
      w.f64(d.ewma);
      w.u64(d.observations);
      w.boolean(d.down);
    }
    w.u32(static_cast<std::uint32_t>(b.quotas.size()));
    for (const std::uint32_t q : b.quotas) w.u32(q);
    w.u32(static_cast<std::uint32_t>(b.applied_weights.size()));
    for (const double weight : b.applied_weights) w.f64(weight);
    w.u32(static_cast<std::uint32_t>(b.applied_targets.size()));
    for (const std::uint32_t t : b.applied_targets) w.u32(t);
    w.u64(b.observed_iters);
  }

  w.u32(static_cast<std::uint32_t>(checkpoint.residency.size()));
  for (const ResidencyEntry& entry : checkpoint.residency) {
    w.u32(entry.sample);
    w.u16(entry.local_holder);
    w.u64(entry.bytes);
  }
  w.u64(checkpoint.residency_checksum);

  w.u32(crc32(std::span<const std::byte>(w.bytes())));
  return std::move(w.bytes());
}

Result<JobCheckpoint> deserialize(std::span<const std::byte> bytes) {
  if (bytes.size() < sizeof(std::uint32_t) * 2 + sizeof(std::uint16_t)) {
    return Status::corrupt("checkpoint: buffer shorter than header + trailer");
  }
  const std::span<const std::byte> body = bytes.first(bytes.size() - sizeof(std::uint32_t));
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + body.size(), sizeof stored_crc);
  if (crc32(body) != stored_crc) {
    return Status::corrupt("checkpoint: CRC mismatch");
  }

  Reader r(body);
  if (r.u32() != JobCheckpoint::kMagic) return Status::corrupt("checkpoint: bad magic");
  if (r.u16() != JobCheckpoint::kVersion) {
    return Status::corrupt("checkpoint: unsupported version");
  }

  JobCheckpoint checkpoint;
  checkpoint.job_id = r.u32();
  checkpoint.name = r.str();
  checkpoint.dataset_fingerprint = r.u64();
  checkpoint.sampler_seed = r.u64();
  checkpoint.epoch = r.u32();
  checkpoint.cursor = r.u64();
  checkpoint.delivered_total = r.u64();
  checkpoint.delivery_digest = r.u64();
  checkpoint.width = r.u16();
  checkpoint.gpus_per_node = r.u16();
  checkpoint.batch_size = r.u32();

  read_vector(r, 4, checkpoint.quotas, [](Reader& in) { return in.u32(); });

  checkpoint.has_balancer = r.boolean();
  if (checkpoint.has_balancer) {
    auto& b = checkpoint.balancer;
    read_vector(r, 8 + 8 + 1, b.devices, [](Reader& in) {
      core::FeedbackBalancer::State::DeviceRate d;
      d.ewma = in.f64();
      d.observations = in.u64();
      d.down = in.boolean();
      return d;
    });
    read_vector(r, 4, b.quotas, [](Reader& in) { return in.u32(); });
    read_vector(r, 8, b.applied_weights, [](Reader& in) { return in.f64(); });
    read_vector(r, 4, b.applied_targets, [](Reader& in) { return in.u32(); });
    b.observed_iters = r.u64();
  }

  read_vector(r, 4 + 2 + 8, checkpoint.residency, [](Reader& in) {
    ResidencyEntry entry;
    entry.sample = in.u32();
    entry.local_holder = in.u16();
    entry.bytes = in.u64();
    return entry;
  });
  checkpoint.residency_checksum = r.u64();

  if (!r.ok()) return Status::corrupt("checkpoint: truncated field");
  if (r.remaining() != 0) return Status::corrupt("checkpoint: trailing bytes");

  // The CRC guards the transport; the inventory checksum guards the
  // *semantic* manifest the same way the rejoin path does — a manifest that
  // disagrees with its own checksum must not drive directory mutations.
  std::vector<SampleId> samples;
  samples.reserve(checkpoint.residency.size());
  for (const ResidencyEntry& entry : checkpoint.residency) samples.push_back(entry.sample);
  if (runtime::inventory_checksum(samples) != checkpoint.residency_checksum) {
    return Status::corrupt("checkpoint: residency manifest checksum mismatch");
  }
  return checkpoint;
}

Status save_file(const JobCheckpoint& checkpoint, const std::string& path) {
  const std::vector<std::byte> bytes = serialize(checkpoint);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return Status::invalid("checkpoint: cannot open " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) return Status::invalid("checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::invalid("checkpoint: rename to " + path + " failed");
  }
  return Status{};
}

Result<JobCheckpoint> load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) return Status::not_found("checkpoint: no file at " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in.good()) return Status::corrupt("checkpoint: short read from " + path);
  return deserialize(bytes);
}

}  // namespace lobster::cluster

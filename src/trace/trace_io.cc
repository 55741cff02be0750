#include "src/trace/trace_io.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_map>
#include <memory>
#include <span>
#include <vector>

#include "src/signal/pattern.h"

namespace harvest {
namespace {

constexpr char kMagic[8] = {'H', 'R', 'V', 'T', 'R', 'A', 'C', 'E'};
// Hard caps so a corrupt length field fails fast instead of attempting a
// multi-terabyte allocation. Far above any real fleet this driver builds.
constexpr uint64_t kMaxCount = uint64_t{1} << 32;
constexpr uint32_t kMaxNameBytes = 4096;
// Magic, version, then four u64 counts.
constexpr size_t kHeaderBytes = sizeof(kMagic) + 4 + 4 * 8;

// --- Little-endian primitives ---------------------------------------------
// Byte-by-byte on purpose: the format is defined little-endian regardless of
// host order, and unaligned loads through memcpy are portable.

void PutU32(std::string& out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string& out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void PutF64(std::string& out, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(out, bits);
}

void PutSeries(std::string& out, std::span<const double> samples) {
  PutU64(out, samples.size());
  for (double sample : samples) {
    PutF64(out, sample);
  }
}

// Sequential reader over the whole file image with explicit bounds checks.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  bool U32(uint32_t* out) {
    if (!Need(4)) {
      return false;
    }
    *out = 0;
    for (int i = 0; i < 4; ++i) {
      *out |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool U64(uint64_t* out) {
    if (!Need(8)) {
      return false;
    }
    *out = 0;
    for (int i = 0; i < 8; ++i) {
      *out |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool F64(double* out) {
    uint64_t bits = 0;
    if (!U64(&bits)) {
      return false;
    }
    std::memcpy(out, &bits, sizeof(bits));
    return true;
  }

  bool Bytes(void* out, size_t n) {
    if (!Need(n)) {
      return false;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool Series(std::vector<double>* out, uint64_t max_count) {
    uint64_t count = 0;
    if (!U64(&count) || count > max_count || !Need(count * 8)) {
      return false;
    }
    out->resize(static_cast<size_t>(count));
    for (double& sample : *out) {
      if (!F64(&sample)) {
        return false;
      }
    }
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t position() const { return pos_; }

 private:
  bool Need(uint64_t n) const { return n <= size_ - pos_; }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return false;
}

// Parses the fixed-size header at the front of a `file_bytes`-long trace
// file: magic, version, count caps, and counts whose minimum encoding fits
// in the bytes after the header. Every record has a fixed minimum size (a
// series is at least its 8-byte length), so counts the file cannot hold are
// corrupt -- rejected here, before anything is sized from them.
bool ParseHeader(Reader& reader, uint64_t file_bytes, const std::string& path,
                 TraceFileInfo* header, std::string* error) {
  auto malformed = [&](const char* what) {
    return Fail(error, std::string("trace file '") + path + "' is malformed (" + what + ")");
  };
  char magic[sizeof(kMagic)];
  if (!reader.Bytes(magic, sizeof(magic)) || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Fail(error, "'" + path + "' is not a harvest trace file (bad magic)");
  }
  if (!reader.U32(&header->version)) {
    return malformed("truncated header");
  }
  if (header->version != kTraceFileVersion) {
    return Fail(error, "trace file '" + path + "' has unsupported version " +
                           std::to_string(header->version) + " (this build reads version " +
                           std::to_string(kTraceFileVersion) + ")");
  }
  uint64_t trace_slots = 0;
  uint64_t num_tenants = 0;
  uint64_t num_servers = 0;
  uint64_t num_traces = 0;
  if (!reader.U64(&trace_slots) || !reader.U64(&num_tenants) || !reader.U64(&num_servers) ||
      !reader.U64(&num_traces)) {
    return malformed("truncated header");
  }
  if (trace_slots > kMaxCount || num_tenants > kMaxCount || num_servers > kMaxCount ||
      num_traces > kMaxCount) {
    return malformed("implausible counts");
  }
  // The caps above keep this sum far from overflow.
  constexpr uint64_t kMinTraceBytes = 8;
  constexpr uint64_t kMinTenantBytes = 4 + 1 + 8 + 4 + 8;
  constexpr uint64_t kMinServerBytes = 4 * 4 + 8 + 8 + 8;
  if (num_traces * kMinTraceBytes + num_tenants * kMinTenantBytes +
          num_servers * kMinServerBytes >
      file_bytes - reader.position()) {
    return malformed("counts exceed file size");
  }
  header->trace_slots = static_cast<size_t>(trace_slots);
  header->tenants = static_cast<size_t>(num_tenants);
  header->servers = static_cast<size_t>(num_servers);
  header->shared_traces = static_cast<size_t>(num_traces);
  return true;
}

}  // namespace

bool WriteClusterTraceFile(const Cluster& cluster, const std::string& path,
                           std::string* error) {
  // Deduplicate server traces by object identity so shared traces (one per
  // tenant at datacenter scale) stay shared across the round trip. Indexed
  // in first-appearance (ServerId) order: deterministic for a given cluster.
  std::unordered_map<const UtilizationTrace*, int64_t> trace_index;
  std::vector<const UtilizationTrace*> pool;
  for (const Server& server : cluster.servers()) {
    const UtilizationTrace* trace = server.utilization.get();
    if (trace == nullptr) {
      continue;
    }
    if (trace_index.emplace(trace, static_cast<int64_t>(pool.size())).second) {
      pool.push_back(trace);
    }
  }

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(out, kTraceFileVersion);
  size_t trace_slots = 0;
  for (const UtilizationTrace* trace : pool) {
    trace_slots = std::max(trace_slots, trace->size());
  }
  for (const PrimaryTenant& tenant : cluster.tenants()) {
    trace_slots = std::max(trace_slots, tenant.average_utilization.size());
  }
  PutU64(out, trace_slots);
  PutU64(out, cluster.num_tenants());
  PutU64(out, cluster.num_servers());
  PutU64(out, pool.size());
  for (const UtilizationTrace* trace : pool) {
    PutSeries(out, trace->samples());
  }
  for (const PrimaryTenant& tenant : cluster.tenants()) {
    PutU32(out, static_cast<uint32_t>(tenant.environment));
    out.push_back(static_cast<char>(tenant.true_pattern));
    PutF64(out, tenant.reimage_rate);
    PutU32(out, static_cast<uint32_t>(tenant.name.size()));
    out.append(tenant.name);
    PutSeries(out, tenant.average_utilization.samples());
  }
  for (const Server& server : cluster.servers()) {
    PutU32(out, static_cast<uint32_t>(server.tenant));
    PutU32(out, static_cast<uint32_t>(server.rack));
    PutU32(out, static_cast<uint32_t>(server.capacity.cores));
    PutU32(out, static_cast<uint32_t>(server.capacity.memory_mb));
    PutU64(out, static_cast<uint64_t>(server.harvestable_blocks));
    const UtilizationTrace* trace = server.utilization.get();
    int64_t index = trace == nullptr ? -1 : trace_index.at(trace);
    PutU64(out, static_cast<uint64_t>(index));
    PutSeries(out, cluster.ReimageTimes(server.id));
  }

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Fail(error, "cannot open trace file '" + path + "' for writing");
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != out.size() || !closed) {
    return Fail(error, "short write to trace file '" + path + "'");
  }
  return true;
}

bool ReadTraceFileHeader(const std::string& path, TraceFileInfo* info, std::string* error) {
  std::error_code size_error;
  const uintmax_t file_bytes = std::filesystem::file_size(path, size_error);
  std::FILE* file = size_error ? nullptr : std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Fail(error, "cannot open trace file '" + path + "'");
  }
  char buffer[kHeaderBytes];
  const size_t n = std::fread(buffer, 1, sizeof(buffer), file);
  std::fclose(file);
  Reader reader(buffer, n);
  return ParseHeader(reader, file_bytes, path, info, error);
}

bool ReadClusterTraceFile(const std::string& path, Cluster* cluster, TraceFileInfo* info,
                          std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Fail(error, "cannot open trace file '" + path + "'");
  }
  std::string data;
  char buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    data.append(buffer, n);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Fail(error, "I/O error reading trace file '" + path + "'");
  }

  auto malformed = [&](const char* what) {
    return Fail(error, std::string("trace file '") + path + "' is malformed (" + what + ")");
  };

  Reader reader(data.data(), data.size());
  TraceFileInfo header;
  if (!ParseHeader(reader, data.size(), path, &header, error)) {
    return false;
  }
  const uint64_t trace_slots = header.trace_slots;
  const uint64_t num_tenants = header.tenants;
  const uint64_t num_servers = header.servers;
  const uint64_t num_traces = header.shared_traces;

  std::vector<std::shared_ptr<const UtilizationTrace>> pool;
  pool.reserve(static_cast<size_t>(num_traces));
  for (uint64_t i = 0; i < num_traces; ++i) {
    std::vector<double> samples;
    if (!reader.Series(&samples, trace_slots)) {
      return malformed("truncated shared trace");
    }
    pool.push_back(std::make_shared<const UtilizationTrace>(std::move(samples)));
  }

  Cluster result;
  for (uint64_t t = 0; t < num_tenants; ++t) {
    PrimaryTenant tenant;
    uint32_t environment = 0;
    char pattern = 0;
    uint32_t name_bytes = 0;
    if (!reader.U32(&environment) || !reader.Bytes(&pattern, 1) ||
        !reader.F64(&tenant.reimage_rate) || !reader.U32(&name_bytes)) {
      return malformed("truncated tenant record");
    }
    if (pattern < 0 || pattern >= kNumPatterns) {
      return malformed("tenant pattern out of range");
    }
    if (name_bytes > kMaxNameBytes) {
      return malformed("tenant name too long");
    }
    tenant.name.resize(name_bytes);
    if (name_bytes > 0 && !reader.Bytes(tenant.name.data(), name_bytes)) {
      return malformed("truncated tenant name");
    }
    std::vector<double> average;
    if (!reader.Series(&average, trace_slots)) {
      return malformed("truncated tenant average trace");
    }
    tenant.environment = static_cast<EnvironmentId>(environment);
    tenant.true_pattern = static_cast<UtilizationPattern>(pattern);
    tenant.average_utilization = UtilizationTrace(std::move(average));
    result.AddTenant(std::move(tenant));
  }

  for (uint64_t s = 0; s < num_servers; ++s) {
    Server server;
    uint32_t tenant = 0;
    uint32_t rack = 0;
    uint32_t cores = 0;
    uint32_t memory_mb = 0;
    uint64_t harvestable = 0;
    uint64_t trace_ref = 0;
    if (!reader.U32(&tenant) || !reader.U32(&rack) || !reader.U32(&cores) ||
        !reader.U32(&memory_mb) || !reader.U64(&harvestable) || !reader.U64(&trace_ref)) {
      return malformed("truncated server record");
    }
    if (tenant >= num_tenants) {
      return malformed("server references unknown tenant");
    }
    const int64_t trace_index = static_cast<int64_t>(trace_ref);
    // -1 is reserved in the format but rejected on read: Server::utilization
    // is "never null after cluster construction" (src/cluster/cluster.h),
    // and the scheduler dereferences it -- a traceless server record is a
    // malformed file, not a loadable fleet.
    if (trace_index < 0 || trace_index >= static_cast<int64_t>(pool.size())) {
      return malformed("server references unknown trace");
    }
    server.tenant = static_cast<TenantId>(tenant);
    server.rack = static_cast<RackId>(rack);
    server.capacity = Resources{static_cast<int>(cores), static_cast<int>(memory_mb)};
    server.harvestable_blocks = static_cast<int64_t>(harvestable);
    server.utilization = pool[static_cast<size_t>(trace_index)];
    std::vector<double> reimage_times;
    if (!reader.Series(&reimage_times, kMaxCount)) {
      return malformed("truncated reimage timeline");
    }
    const ServerId id = result.AddServer(std::move(server));
    result.SetReimageTimes(id, reimage_times.data(), reimage_times.size());
  }

  if (!reader.AtEnd()) {
    return malformed("trailing bytes after payload");
  }
  *cluster = std::move(result);
  if (info != nullptr) {
    *info = header;
  }
  return true;
}

}  // namespace harvest

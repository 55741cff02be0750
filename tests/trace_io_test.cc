#include "src/trace/trace_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/cluster/datacenter.h"
#include "src/trace/trace_source.h"
#include "src/util/rng.h"

namespace harvest {
namespace {

namespace fs = std::filesystem;

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("trace_io_test_" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<uintptr_t>(this)));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string PathFor(const std::string& name) const { return (dir_ / name).string(); }

  std::string ReadAll(const std::string& path) const {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  void WriteAll(const std::string& path, const std::string& data) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  fs::path dir_;
};

// A datacenter-profile fleet: per-server traces, reimage schedules,
// heterogeneous harvestable blocks -- every field the format carries.
Cluster BuildFleet(uint64_t seed, bool per_server_traces) {
  Rng rng(seed);
  BuildOptions options;
  options.trace_slots = 96;
  options.reimage_months = 6;
  options.scale = 0.05;
  options.per_server_traces = per_server_traces;
  return BuildCluster(DatacenterByName("DC-5"), options, rng);
}

void ExpectClustersIdentical(const Cluster& a, const Cluster& b) {
  ASSERT_EQ(a.num_tenants(), b.num_tenants());
  ASSERT_EQ(a.num_servers(), b.num_servers());
  for (size_t t = 0; t < a.num_tenants(); ++t) {
    const PrimaryTenant& ta = a.tenant(static_cast<TenantId>(t));
    const PrimaryTenant& tb = b.tenant(static_cast<TenantId>(t));
    EXPECT_EQ(ta.id, tb.id);
    EXPECT_EQ(ta.environment, tb.environment);
    EXPECT_EQ(ta.name, tb.name);
    EXPECT_EQ(ta.true_pattern, tb.true_pattern);
    // Bit-exact: reimage_rate and utilization samples round-trip as raw
    // IEEE-754 doubles.
    EXPECT_EQ(ta.reimage_rate, tb.reimage_rate);
    EXPECT_EQ(ta.average_utilization.samples(), tb.average_utilization.samples());
    EXPECT_EQ(ta.servers, tb.servers);
  }
  for (size_t s = 0; s < a.num_servers(); ++s) {
    const Server& sa = a.server(static_cast<ServerId>(s));
    const Server& sb = b.server(static_cast<ServerId>(s));
    EXPECT_EQ(sa.id, sb.id);
    EXPECT_EQ(sa.tenant, sb.tenant);
    EXPECT_EQ(sa.rack, sb.rack);
    EXPECT_EQ(sa.capacity, sb.capacity);
    EXPECT_EQ(sa.harvestable_blocks, sb.harvestable_blocks);
    ASSERT_EQ(sa.utilization != nullptr, sb.utilization != nullptr);
    if (sa.utilization != nullptr) {
      EXPECT_EQ(sa.utilization->samples(), sb.utilization->samples());
    }
    const auto ra = a.ReimageTimes(static_cast<ServerId>(s));
    const auto rb = b.ReimageTimes(static_cast<ServerId>(s));
    ASSERT_EQ(ra.size(), rb.size());
    EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin()));
  }
}

TEST_F(TraceIoTest, RoundTripsAFleetBitExactly) {
  Cluster original = BuildFleet(7, /*per_server_traces=*/true);
  std::string error;
  const std::string path = PathFor("DC-5.trace");
  ASSERT_TRUE(WriteClusterTraceFile(original, path, &error)) << error;

  Cluster replayed;
  TraceFileInfo info;
  ASSERT_TRUE(ReadClusterTraceFile(path, &replayed, &info, &error)) << error;
  EXPECT_EQ(info.version, kTraceFileVersion);
  EXPECT_EQ(info.tenants, original.num_tenants());
  EXPECT_EQ(info.servers, original.num_servers());
  EXPECT_EQ(info.trace_slots, 96u);
  ExpectClustersIdentical(original, replayed);
}

TEST_F(TraceIoTest, SharedTracesStaySharedAcrossTheRoundTrip) {
  // At datacenter scale servers of one tenant share a single trace object;
  // the pool encoding must restore the sharing, not explode it into copies.
  Cluster original = BuildFleet(11, /*per_server_traces=*/false);
  std::string error;
  const std::string path = PathFor("shared.trace");
  ASSERT_TRUE(WriteClusterTraceFile(original, path, &error)) << error;
  Cluster replayed;
  TraceFileInfo info;
  ASSERT_TRUE(ReadClusterTraceFile(path, &replayed, &info, &error)) << error;
  ExpectClustersIdentical(original, replayed);
  EXPECT_EQ(info.shared_traces, original.num_tenants());
  for (size_t t = 0; t < replayed.num_tenants(); ++t) {
    const PrimaryTenant& tenant = replayed.tenant(static_cast<TenantId>(t));
    ASSERT_FALSE(tenant.servers.empty());
    const UtilizationTrace* first =
        replayed.server(tenant.servers.front()).utilization.get();
    for (ServerId s : tenant.servers) {
      EXPECT_EQ(replayed.server(s).utilization.get(), first)
          << "tenant " << t << " lost trace sharing";
    }
  }
}

TEST_F(TraceIoTest, RejectsMissingFileBadMagicAndBadVersion) {
  Cluster cluster;
  TraceFileInfo info;
  std::string error;
  EXPECT_FALSE(ReadClusterTraceFile(PathFor("absent.trace"), &cluster, &info, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  WriteAll(PathFor("not_a_trace.trace"), "this is json actually");
  EXPECT_FALSE(ReadClusterTraceFile(PathFor("not_a_trace.trace"), &cluster, &info, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos);

  // Flip the version field (bytes 8..11, little-endian) to an unsupported
  // value: the reader must name both versions instead of misparsing.
  Cluster fleet = BuildFleet(3, true);
  ASSERT_TRUE(WriteClusterTraceFile(fleet, PathFor("v.trace"), &error)) << error;
  std::string data = ReadAll(PathFor("v.trace"));
  data[8] = 99;
  WriteAll(PathFor("v.trace"), data);
  EXPECT_FALSE(ReadClusterTraceFile(PathFor("v.trace"), &cluster, &info, &error));
  EXPECT_NE(error.find("unsupported version"), std::string::npos);
  EXPECT_NE(error.find("99"), std::string::npos);
}

TEST_F(TraceIoTest, RejectsTruncationAtEveryPrefixLength) {
  Cluster fleet = BuildFleet(5, true);
  std::string error;
  ASSERT_TRUE(WriteClusterTraceFile(fleet, PathFor("full.trace"), &error)) << error;
  const std::string data = ReadAll(PathFor("full.trace"));
  ASSERT_GT(data.size(), 1000u);
  // Every strict prefix must fail cleanly -- never crash, never yield a
  // cluster. Step through representative cut points including all short
  // prefixes (header region) and coarse strides through the payload.
  for (size_t cut = 0; cut < data.size();
       cut += (cut < 64 ? 1 : data.size() / 97 + 1)) {
    WriteAll(PathFor("cut.trace"), data.substr(0, cut));
    Cluster out;
    TraceFileInfo info;
    std::string cut_error;
    EXPECT_FALSE(ReadClusterTraceFile(PathFor("cut.trace"), &out, &info, &cut_error))
        << "prefix of " << cut << " bytes parsed as a whole cluster";
  }
  // Trailing garbage is an error too: a .trace is exactly one cluster.
  WriteAll(PathFor("long.trace"), data + "x");
  Cluster out;
  TraceFileInfo info;
  EXPECT_FALSE(ReadClusterTraceFile(PathFor("long.trace"), &out, &info, &error));
  EXPECT_NE(error.find("trailing bytes"), std::string::npos);
}

TEST_F(TraceIoTest, RejectsOutOfRangeReferences) {
  Cluster fleet = BuildFleet(9, true);
  std::string error;
  ASSERT_TRUE(WriteClusterTraceFile(fleet, PathFor("ok.trace"), &error)) << error;
  std::string data = ReadAll(PathFor("ok.trace"));
  // Corrupt the tenant count (bytes 20..27): servers then reference tenants
  // past the (shrunken) table, which must be a shape error, not UB.
  std::string fewer = data;
  fewer[20] = 1;
  for (int i = 21; i < 28; ++i) {
    fewer[static_cast<size_t>(i)] = 0;
  }
  Cluster out;
  TraceFileInfo info;
  WriteAll(PathFor("corrupt.trace"), fewer);
  EXPECT_FALSE(ReadClusterTraceFile(PathFor("corrupt.trace"), &out, &info, &error));
}

TEST_F(TraceIoTest, RejectsCountsTheFileCannotHold) {
  // A 48-byte file: valid magic and version, then num_traces = 2^32 (inside
  // the count cap) with nothing behind it. The reader must call it malformed
  // before sizing anything from the count, not die allocating 2^32 traces.
  Cluster fleet = BuildFleet(11, true);
  std::string error;
  ASSERT_TRUE(WriteClusterTraceFile(fleet, PathFor("ok.trace"), &error)) << error;
  std::string data = ReadAll(PathFor("ok.trace")).substr(0, 12);  // magic + version
  for (uint64_t field : {uint64_t{0}, uint64_t{0}, uint64_t{0}, uint64_t{1} << 32}) {
    for (int i = 0; i < 8; ++i) {
      data.push_back(static_cast<char>((field >> (8 * i)) & 0xff));
    }
  }
  data.append(4, '\0');
  ASSERT_EQ(data.size(), 48u);
  WriteAll(PathFor("DC-9.trace"), data);
  Cluster out;
  TraceFileInfo info;
  EXPECT_FALSE(ReadClusterTraceFile(PathFor("DC-9.trace"), &out, &info, &error));
  EXPECT_NE(error.find("malformed"), std::string::npos) << error;
  // The header-only check the driver runs before a replay agrees, and
  // accepts the intact file it was cut from.
  error.clear();
  EXPECT_FALSE(ReadTraceFileHeader(PathFor("DC-9.trace"), &info, &error));
  EXPECT_NE(error.find("counts exceed file size"), std::string::npos) << error;
  ASSERT_TRUE(ReadTraceFileHeader(PathFor("ok.trace"), &info, &error)) << error;
  EXPECT_EQ(info.servers, fleet.num_servers());
  EXPECT_EQ(info.tenants, fleet.num_tenants());
}

TEST_F(TraceIoTest, RejectsTracelessServers) {
  // A server with no utilization trace violates the cluster invariant
  // (Server::utilization never null after construction); the writer encodes
  // it as trace_index -1, and the reader must refuse to load it rather than
  // hand the scheduler a null trace.
  Cluster cluster;
  PrimaryTenant tenant;
  tenant.name = "bare";
  tenant.average_utilization = UtilizationTrace({0.25, 0.5});
  TenantId tid = cluster.AddTenant(std::move(tenant));
  Server server;
  server.tenant = tid;
  cluster.AddServer(std::move(server));  // utilization left null

  std::string error;
  ASSERT_TRUE(WriteClusterTraceFile(cluster, PathFor("traceless.trace"), &error)) << error;
  Cluster out;
  TraceFileInfo info;
  EXPECT_FALSE(ReadClusterTraceFile(PathFor("traceless.trace"), &out, &info, &error));
  EXPECT_NE(error.find("unknown trace"), std::string::npos) << error;
}

TEST_F(TraceIoTest, TraceSourceResolvesLabelsWithDidYouMean) {
  Cluster fleet = BuildFleet(13, true);
  std::string error;
  ASSERT_TRUE(WriteClusterTraceFile(fleet, PathFor("DC-5.trace"), &error)) << error;

  TraceSource source = TraceSource::Replay(dir_.string());
  ASSERT_TRUE(source.is_replay());
  EXPECT_EQ(source.Provenance(), "replay:" + dir_.string());
  std::string path;
  ASSERT_TRUE(source.ResolveTraceFile("DC-5", &path, &error)) << error;
  EXPECT_EQ(path, PathFor("DC-5.trace"));

  EXPECT_FALSE(source.ResolveTraceFile("DC-4", &path, &error));
  EXPECT_NE(error.find("did you mean 'DC-5'"), std::string::npos) << error;
  EXPECT_NE(error.find("available: DC-5"), std::string::npos) << error;

  TraceSource missing = TraceSource::Replay((dir_ / "no_such_subdir").string());
  EXPECT_FALSE(missing.ResolveTraceFile("DC-5", &path, &error));
  EXPECT_NE(error.find("not a directory"), std::string::npos) << error;

  EXPECT_EQ(TraceSource::Synthetic().Provenance(), "synthetic");
  EXPECT_FALSE(TraceSource::Synthetic().is_replay());
}

TEST_F(TraceIoTest, EmptyDirectoryErrorSuggestsDumpTraces) {
  TraceSource source = TraceSource::Replay(dir_.string());
  std::string path;
  std::string error;
  EXPECT_FALSE(source.ResolveTraceFile("DC-0", &path, &error));
  EXPECT_NE(error.find("--dump-traces"), std::string::npos) << error;
}

}  // namespace
}  // namespace harvest

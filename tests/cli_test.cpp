#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "filter/filter_registry.h"
#include "filter/snapshot.h"
#include "net/capture_reader.h"
#include "net/pcap.h"
#include "sim/edge_router.h"
#include "sim/report.h"
#include "util/metrics_export.h"

namespace upbound::cli {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"upbound"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

// ---------------- Args ----------------

TEST(CliArgs, CommandAndOptions) {
  const Args args = parse({"filter", "--pcap", "x.pcap", "--low", "3e6"});
  EXPECT_EQ(args.command(), "filter");
  EXPECT_EQ(args.get_string("pcap", ""), "x.pcap");
  EXPECT_DOUBLE_EQ(args.get_double("low", 0.0), 3e6);
}

TEST(CliArgs, EqualsSyntax) {
  const Args args = parse({"generate", "--out=trace.pcap", "--seed=9"});
  EXPECT_EQ(args.get_string("out", ""), "trace.pcap");
  EXPECT_EQ(args.get_u64("seed", 0), 9u);
}

TEST(CliArgs, BareFlagIsBoolean) {
  const Args args = parse({"filter", "--blocklist", "--pcap", "x"});
  EXPECT_TRUE(args.get_flag("blocklist"));
  EXPECT_FALSE(args.get_flag("hole-punching"));
}

TEST(CliArgs, DefaultsWhenAbsent) {
  const Args args = parse({"advise"});
  EXPECT_EQ(args.get_int("bits", 20), 20);
  EXPECT_DOUBLE_EQ(args.get_double("dt", 5.0), 5.0);
  EXPECT_EQ(args.get_string("filter", "bitmap"), "bitmap");
}

TEST(CliArgs, EmptyCommand) {
  const Args args = parse({});
  EXPECT_TRUE(args.empty());
}

TEST(CliArgs, RequireThrowsWhenMissing) {
  const Args args = parse({"generate"});
  EXPECT_THROW(args.require_string("out"), ArgError);
}

TEST(CliArgs, BadNumbersThrow) {
  EXPECT_THROW(parse({"x", "--n", "abc"}).get_int("n", 0), ArgError);
  EXPECT_THROW(parse({"x", "--f", "1.2.3"}).get_double("f", 0), ArgError);
  EXPECT_THROW(parse({"x", "--n", "-4"}).get_u64("n", 0), ArgError);
}

TEST(CliArgs, StrayPositionalThrows) {
  EXPECT_THROW(parse({"filter", "stray"}), ArgError);
}

TEST(CliArgs, UnconsumedDetection) {
  const Args args = parse({"x", "--used", "1", "--typo", "2"});
  EXPECT_EQ(args.get_int("used", 0), 1);
  const auto leftovers = args.unconsumed();
  ASSERT_EQ(leftovers.size(), 1u);
  EXPECT_EQ(leftovers[0], "typo");
}

// ---------------- Commands (end-to-end through run()) ----------------

class CliCommandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("upbound_cli_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  int run_cli(std::initializer_list<const char*> tokens) {
    std::vector<const char*> argv{"upbound"};
    argv.insert(argv.end(), tokens.begin(), tokens.end());
    return run(static_cast<int>(argv.size()), argv.data());
  }

  int run_cli(const std::vector<std::string>& tokens) {
    std::vector<const char*> argv{"upbound"};
    for (const std::string& t : tokens) argv.push_back(t.c_str());
    return run(static_cast<int>(argv.size()), argv.data());
  }

  std::filesystem::path dir_;
};

TEST_F(CliCommandTest, GenerateAnalyzeFilterPipeline) {
  const std::string trace = (dir_ / "trace.pcap").string();
  const std::string filtered = (dir_ / "filtered.pcap").string();

  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "5",
                     "--rate", "30", "--bandwidth", "2e6", "--seed", "5"}),
            0);
  ASSERT_TRUE(std::filesystem::exists(trace));

  EXPECT_EQ(run_cli({"analyze", "--pcap", trace.c_str()}), 0);

  ASSERT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "bitmap",
                     "--pd", "1.0", "--out", filtered.c_str()}),
            0);
  ASSERT_TRUE(std::filesystem::exists(filtered));

  // The filtered pcap holds strictly fewer packets than the original.
  PcapReader original{trace};
  PcapReader survivor{filtered};
  const std::size_t original_count = original.read_all().size();
  const std::size_t survivor_count = survivor.read_all().size();
  EXPECT_GT(original_count, 0u);
  EXPECT_LT(survivor_count, original_count);
  EXPECT_GT(survivor_count, original_count / 2);
}

TEST_F(CliCommandTest, FilterVariants) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "spi"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "naive",
                     "--timeout", "10"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "bitmap",
                     "--bits", "16", "--k", "3", "--dt", "2", "--m", "2",
                     "--hole-punching", "--low", "1e6", "--high", "2e6",
                     "--blocklist"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "aging",
                     "--bits", "16", "--k", "5"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "bitmap-mt", "--bits", "16"}),
            0);
}

TEST_F(CliCommandTest, AdviseRuns) {
  EXPECT_EQ(run_cli({"advise", "--connections", "50000", "--bits", "20"}), 0);
}

TEST_F(CliCommandTest, PcapngFormatEndToEnd) {
  const std::string trace = (dir_ / "trace.pcapng").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--format",
                     "pcapng", "--duration", "3", "--rate", "20",
                     "--bandwidth", "1e6"}),
            0);
  // Format auto-detected by magic, not extension.
  EXPECT_EQ(run_cli({"analyze", "--pcap", trace.c_str()}), 0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str()}), 0);
  EXPECT_EQ(run_cli({"generate", "--out", trace.c_str(), "--format",
                     "hdf5"}),
            2);
}

TEST_F(CliCommandTest, CompareRuns) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "4",
                     "--rate", "25", "--bandwidth", "1e6"}),
            0);
  EXPECT_EQ(run_cli({"compare", "--pcap", trace.c_str(), "--bits", "16"}),
            0);
}

TEST_F(CliCommandTest, SaveAndLoadFilterState) {
  const std::string trace = (dir_ / "trace.pcap").string();
  const std::string state = (dir_ / "bitmap.state").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6"}),
            0);
  ASSERT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--save-state",
                     state.c_str()}),
            0);
  ASSERT_TRUE(std::filesystem::exists(state));
  // Resume from the snapshot.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--load-state",
                     state.c_str()}),
            0);
  // Malformed snapshot rejected.
  {
    std::FILE* f = std::fopen(state.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage", f);
    std::fclose(f);
  }
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--load-state",
                     state.c_str()}),
            2);
  // --save-state with a non-bitmap filter is an error.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "spi",
                     "--save-state", state.c_str()}),
            2);
}

// ------- Streaming filter == the whole-trace replay it replaced -------

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, {}};
}

void write_trace(const std::string& path, const Trace& trace) {
  PcapWriter writer{path};
  writer.write_all(trace);
}

// Router flags every run below shares; the geometry flags are left off
// --load-state runs, whose geometry comes from the snapshot.
const std::vector<std::string> kPolicyFlags = {
    "--low", "1e6", "--high", "3e6", "--blocklist", "--seed", "7"};
const std::vector<std::string> kGeometryFlags = {
    "--filter", "bitmap", "--bits", "16", "--k", "4", "--m", "3", "--dt", "2"};
constexpr double kIntervalSec = 1.0;  // --metrics-interval 1
constexpr std::size_t kFilterBatch = 256;  // the filter command's batch

std::unique_ptr<StateFilter> geometry_filter() {
  MapFilterArgs args;
  args.set("bits", "16").set("k", "4").set("m", "3").set("dt", "2");
  return make_state_filter(FilterRegistry::instance().parse("bitmap", args));
}

struct FilterOutputs {
  std::string report;     // the stats + counters block of the report
  std::string survivors;  // --out bytes
  std::string metrics;    // --metrics-out bytes (deterministic JSONL)
  std::string snapshot;   // --save-state bytes
};

template <typename... Args>
void appendf(std::string& out, const char* format, Args... args) {
  char line[256];
  std::snprintf(line, sizeof(line), format, args...);
  out += line;
}

// The report block the filter command prints for `router`.
std::string report_block(const EdgeRouter& router) {
  const EdgeRouterStats& stats = router.stats();
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::string out;
  appendf(out, "outbound passed:  %llu packets, %llu bytes\n",
          u(stats.outbound_packets), u(stats.outbound_bytes));
  appendf(out, "inbound passed:   %llu packets, %llu bytes\n",
          u(stats.inbound_passed_packets), u(stats.inbound_passed_bytes));
  appendf(out, "inbound dropped:  %llu packets (%s), %llu via blocklist\n",
          u(stats.inbound_dropped_packets),
          report::percent(stats.inbound_drop_rate()).c_str(),
          u(stats.blocked_drops));
  appendf(out, "upload suppressed: %llu packets, %llu bytes\n",
          u(stats.suppressed_outbound_packets),
          u(stats.suppressed_outbound_bytes));
  appendf(out, "filter state: %zu bytes (%s)\n",
          router.filter().storage_bytes(), router.filter().name().c_str());
  out += "datapath stage counters:\n";
  for (const CounterSample& sample : stats.stage_counters) {
    appendf(out, "  %-28s %llu\n", sample.name.c_str(), u(sample.value));
  }
  return out;
}

// The filter command's replay before it streamed: the whole capture read
// up front, cut into 256-packet batches, interval snapshots on sim-time
// boundaries from the first packet, the final snapshot and the saved
// state at the last packet's timestamp.
FilterOutputs whole_trace_filter(const std::string& capture,
                                 std::unique_ptr<StateFilter> filter,
                                 const std::filesystem::path& dir) {
  const Trace trace = CaptureReader{capture}.read_all();
  EdgeRouterConfig config;
  config.network.add_prefix(*Cidr::parse("140.112.30.0/24"));
  config.track_blocked_connections = true;
  config.seed = 7;
  EdgeRouter router{config, std::move(filter),
                    std::make_unique<RedDropPolicy>(1e6, 3e6)};
  const std::string survivors = (dir / "reference.pcap").string();
  const std::string metrics = (dir / "reference.jsonl").string();
  const SimTime end =
      trace.empty() ? SimTime::origin() : trace.back().timestamp;
  {
    PcapWriter writer{survivors};
    MetricsJsonlWriter jsonl{metrics};
    const Duration interval = Duration::sec(kIntervalSec);
    SimTime next_emit = trace.empty() ? SimTime::infinite()
                                      : trace.front().timestamp + interval;
    std::array<RouterDecision, kFilterBatch> decisions;
    for (std::size_t start = 0; start < trace.size(); start += kFilterBatch) {
      const std::size_t n = std::min(kFilterBatch, trace.size() - start);
      const PacketBatch batch{trace.data() + start, n};
      router.process_batch(batch, {decisions.data(), n});
      while (batch[n - 1].timestamp >= next_emit) {
        jsonl.write(router.metrics_snapshot().deterministic(), "interval",
                    next_emit);
        next_emit += interval;
      }
      for (std::size_t p = 0; p < n; ++p) {
        if (decisions[p] == RouterDecision::kPassedOutbound ||
            decisions[p] == RouterDecision::kPassedInbound) {
          writer.write(batch[p]);
        }
      }
    }
    jsonl.write(router.metrics_snapshot().deterministic(), "final", end);
  }
  FilterOutputs out;
  out.report = report_block(router);
  out.survivors = slurp(survivors);
  out.metrics = slurp(metrics);
  const auto* bitmap = dynamic_cast<const BitmapFilter*>(&router.filter());
  if (bitmap != nullptr) {
    const auto snapshot = snapshot_bitmap_filter(*bitmap, end);
    out.snapshot.assign(snapshot.begin(), snapshot.end());
  }
  return out;
}

class CliStreamingTest : public CliCommandTest {
 protected:
  void SetUp() override {
    CliCommandTest::SetUp();
    base_ = path("base.pcap");
    ASSERT_EQ(run_cli({"generate", "--out", base_.c_str(), "--duration", "6",
                       "--rate", "40", "--bandwidth", "4e6", "--seed", "9"}),
              0);
    trace_ = CaptureReader{base_}.read_all();
    ASSERT_GT(trace_.size(), 2 * kFilterBatch + 1);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Runs `filter` with --out/--metrics-out (and `extra`) on `capture`;
  // returns the exit code and fills `out` from its outputs.
  int streamed_filter(const std::string& capture,
                      const std::vector<std::string>& extra,
                      FilterOutputs& out) {
    const std::string survivors = path("streamed.pcap");
    const std::string metrics = path("streamed.jsonl");
    std::vector<std::string> args{"filter",        "--pcap",
                                  capture,         "--out",
                                  survivors,       "--metrics-out",
                                  metrics,         "--metrics-interval",
                                  "1",             "--metrics-deterministic"};
    args.insert(args.end(), kPolicyFlags.begin(), kPolicyFlags.end());
    args.insert(args.end(), extra.begin(), extra.end());
    ::testing::internal::CaptureStdout();
    const int rc = run_cli(args);
    out.report = ::testing::internal::GetCapturedStdout();
    out.survivors = slurp(survivors);
    out.metrics = slurp(metrics);
    return rc;
  }

  // Streams `capture` through the filter command and checks every output
  // against the whole-trace replay; returns the streamed outputs.
  FilterOutputs expect_streaming_matches(
      const std::string& capture,
      std::unique_ptr<StateFilter> reference_filter,
      const std::vector<std::string>& extra) {
    FilterOutputs streamed;
    EXPECT_EQ(streamed_filter(capture, extra, streamed), 0) << capture;
    const FilterOutputs want =
        whole_trace_filter(capture, std::move(reference_filter), dir_);
    EXPECT_NE(streamed.report.find(want.report), std::string::npos)
        << "report:\n" << streamed.report << "\nwant block:\n"
        << want.report;
    EXPECT_EQ(streamed.survivors, want.survivors) << capture;
    EXPECT_EQ(streamed.metrics, want.metrics) << capture;
    return streamed;
  }

  // `trace` shifted by `by`, behind leading frames no decoder accepts
  // (IPv6 ethertype), stamped `garbage_at`.
  void write_with_undecodable_prefix(const std::string& out,
                                     const Trace& trace, Duration by,
                                     SimTime garbage_at) {
    Trace shifted = trace;
    for (PacketRecord& p : shifted) p.timestamp = p.timestamp + by;
    write_trace(out, shifted);
    const std::string bytes = slurp(out);
    std::string garbage;
    const std::int64_t usec = garbage_at.usec();
    for (int frame = 0; frame < 3; ++frame) {
      for (const std::uint32_t v :
           {static_cast<std::uint32_t>(usec / 1'000'000),
            static_cast<std::uint32_t>(usec % 1'000'000), 14u, 14u}) {
        for (int b = 0; b < 4; ++b) {
          garbage.push_back(static_cast<char>(v >> (8 * b)));
        }
      }
      std::string eth(14, '\x02');
      eth[12] = '\x86';
      eth[13] = '\xdd';
      garbage += eth;
    }
    std::ofstream f{out, std::ios::binary | std::ios::trunc};
    f << bytes.substr(0, 24) << garbage << bytes.substr(24);
  }

  std::string base_;
  Trace trace_;
};

TEST_F(CliStreamingTest, PcapAndPcapngMatchTheWholeTraceReplay) {
  const std::string ng = path("base.pcapng");
  ASSERT_EQ(run_cli({"generate", "--out", ng.c_str(), "--format", "pcapng",
                     "--duration", "6", "--rate", "40", "--bandwidth", "4e6",
                     "--seed", "9"}),
            0);
  const FilterOutputs from_pcap =
      expect_streaming_matches(base_, geometry_filter(), kGeometryFlags);
  const FilterOutputs from_pcapng =
      expect_streaming_matches(ng, geometry_filter(), kGeometryFlags);
  EXPECT_EQ(from_pcap.report, from_pcapng.report);
  EXPECT_EQ(from_pcap.survivors, from_pcapng.survivors);
  EXPECT_EQ(from_pcap.metrics, from_pcapng.metrics);
}

TEST_F(CliStreamingTest, EmptyCapture) {
  const std::string empty = path("empty.pcap");
  write_trace(empty, {});
  const FilterOutputs out =
      expect_streaming_matches(empty, geometry_filter(), kGeometryFlags);
  EXPECT_EQ(out.survivors.size(), 24u);  // global header only
}

TEST_F(CliStreamingTest, BatchBoundaryLengths) {
  for (const std::size_t n :
       {kFilterBatch, 2 * kFilterBatch, 2 * kFilterBatch + 1}) {
    const std::string capture = path("cut" + std::to_string(n) + ".pcap");
    write_trace(capture, Trace(trace_.begin(), trace_.begin() + n));
    expect_streaming_matches(capture, geometry_filter(), kGeometryFlags);
  }
}

TEST_F(CliStreamingTest, SaveLoadStateRoundTrip) {
  const std::string state = path("state.bin");
  std::vector<std::string> save = kGeometryFlags;
  save.insert(save.end(), {"--save-state", state});
  FilterOutputs streamed;
  ASSERT_EQ(streamed_filter(base_, save, streamed), 0);
  const FilterOutputs want = whole_trace_filter(base_, geometry_filter(), dir_);
  EXPECT_EQ(streamed.survivors, want.survivors);
  ASSERT_FALSE(want.snapshot.empty());
  EXPECT_EQ(slurp(state), want.snapshot);

  // Resume on a later capture whose first decoded packet lies within T_e
  // of the snapshot, behind undecodable frames stamped far past it: the
  // staleness check must see the decoded timestamp.
  const SimTime snapshot_at = trace_.back().timestamp;
  const std::string fresh = path("fresh.pcap");
  write_with_undecodable_prefix(fresh, trace_,
                                snapshot_at - trace_.front().timestamp,
                                snapshot_at + Duration::sec(1000.0));
  const std::vector<std::uint8_t> bytes(want.snapshot.begin(),
                                        want.snapshot.end());
  auto restored = restore_bitmap_filter_checked(bytes, snapshot_at);
  ASSERT_TRUE(restored.ok());
  expect_streaming_matches(
      fresh, take_restored_filter(std::move(*restored.restored)),
      {"--filter", "bitmap", "--load-state", state});

  // The same packets shifted past T_e behind fresh-stamped undecodable
  // frames: stale, whatever the undecodable frames say.
  const std::string stale = path("stale.pcap");
  write_with_undecodable_prefix(
      stale, trace_,
      snapshot_at - trace_.front().timestamp + Duration::sec(1000.0),
      snapshot_at);
  FilterOutputs rejected;
  EXPECT_EQ(streamed_filter(stale, {"--filter", "bitmap", "--load-state",
                                    state},
                            rejected),
            2);
}

TEST_F(CliCommandTest, HelpAndErrors) {
  EXPECT_EQ(run_cli({"help"}), 0);
  EXPECT_EQ(run_cli({}), 2);
  EXPECT_EQ(run_cli({"frobnicate"}), 2);
  EXPECT_EQ(run_cli({"generate"}), 2);  // missing --out
  EXPECT_EQ(run_cli({"analyze", "--pcap", "/does/not/exist.pcap"}), 1);
  EXPECT_EQ(run_cli({"filter", "--pcap", "x", "--filter", "quantum"}), 2);
  EXPECT_EQ(run_cli({"advise", "--bogus-option", "3"}), 2);
}

TEST_F(CliCommandTest, BadNetworkRejected) {
  EXPECT_EQ(run_cli({"analyze", "--pcap", "x", "--network", "not-a-cidr"}),
            2);
}

TEST_F(CliCommandTest, SeedFlagAcceptedAcrossCommands) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6", "--seed", "11"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--seed", "11"}), 0);
  EXPECT_EQ(run_cli({"compare", "--pcap", trace.c_str(), "--bits", "16",
                     "--seed", "11"}),
            0);
}

TEST(CliDefaults, DefaultFilterPrefersTheBlockedBitmap) {
  // No special capability requested: the cache-resident layout wins.
  EXPECT_EQ(resolve_default_filter(false, false), "bitmap-blocked");
  // Snapshot or shared-view runs need the classic bitmap.
  EXPECT_EQ(resolve_default_filter(true, false), "bitmap");
  EXPECT_EQ(resolve_default_filter(false, true), "bitmap");
  EXPECT_EQ(resolve_default_filter(true, true), "bitmap");
}

TEST_F(CliCommandTest, TenancyFlagsRunEndToEnd) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6", "--seed", "4"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenants", "8"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenants", "8",
                     "--tenant-mode", "prefix24", "--tenant-cap", "4"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "hierarchical", "--fine", "bitmap-blocked"}),
            0);
  EXPECT_EQ(run_cli({"compare", "--pcap", trace.c_str(), "--bits", "14",
                     "--tenants", "4"}),
            0);
}

TEST_F(CliCommandTest, TenantScenarioGeneratesAReplayableCapture) {
  const std::string trace = (dir_ / "swarm.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--tenant-scenario",
                     "swarm-join", "--tenants", "6", "--duration", "5",
                     "--seed", "3"}),
            0);
  // The scenario's subscriber pool lives in 10.40.0.0/16.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--network",
                     "10.40.0.0/16", "--tenants", "6"}),
            0);
  EXPECT_EQ(run_cli({"generate", "--out", trace.c_str(), "--tenant-scenario",
                     "tsunami"}),
            2);
}

TEST_F(CliCommandTest, TenancyFlagGuards) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "2",
                     "--rate", "10", "--bandwidth", "1e6"}),
            0);
  const std::string state = (dir_ / "state.bin").string();
  // Mode/cap without --tenants.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenant-mode",
                     "prefix24"}),
            2);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenant-cap",
                     "4"}),
            2);
  // Unknown mode.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenants", "4",
                     "--tenant-mode", "household"}),
            2);
  // Tenancy has no snapshot format and is shard-local by design.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenants", "4",
                     "--save-state", state.c_str()}),
            2);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tenants", "4",
                     "--threads", "2", "--shard-mode", "shared"}),
            2);
}

TEST_F(CliCommandTest, AttackRunsAndReportIsByteStable) {
  const std::string out_a = (dir_ / "report_a.jsonl").string();
  const std::string out_b = (dir_ / "report_b.jsonl").string();
  ASSERT_EQ(run_cli({"attack", "--scenario", "forgery,rotation", "--seed",
                     "42", "--duration", "12", "--rate", "20", "--bandwidth",
                     "1e6", "--bits", "12", "--dt", "1", "--out",
                     out_a.c_str()}),
            0);
  ASSERT_EQ(run_cli({"attack", "--scenario", "forgery,rotation", "--seed",
                     "42", "--duration", "12", "--rate", "20", "--bandwidth",
                     "1e6", "--bits", "12", "--dt", "1", "--threads", "3",
                     "--out", out_b.c_str()}),
            0);
  std::ifstream a{out_a}, b{out_b};
  const std::string bytes_a{std::istreambuf_iterator<char>{a}, {}};
  const std::string bytes_b{std::istreambuf_iterator<char>{b}, {}};
  EXPECT_FALSE(bytes_a.empty());
  // Same seed, different thread count: byte-identical reports.
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST_F(CliCommandTest, ZooBackendsRunEndToEnd) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "retouched", "--bits", "14", "--retouch-fraction",
                     "0.05", "--retouch-seed", "7"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "counting", "--bits", "14", "--k", "3", "--dt", "2"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "counting", "--no-close-delete"}),
            0);
  // Bad retouch fraction surfaces as a usage error, not a crash.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "retouched", "--retouch-fraction", "0.7"}),
            2);
}

TEST_F(CliCommandTest, SnapshotFlagsRequireASnapshotCapableBackend) {
  const std::string trace = (dir_ / "trace.pcap").string();
  const std::string state = (dir_ / "state.bin").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6"}),
            0);
  // The counting and retouched backends advertise no snapshot support;
  // both save and load must fail fast with a usage error (before any
  // replay work happens), for both flags.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "counting", "--save-state", state.c_str()}),
            2);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "retouched", "--save-state", state.c_str()}),
            2);
  EXPECT_FALSE(std::filesystem::exists(state));
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "counting", "--load-state", state.c_str()}),
            2);
}

TEST_F(CliCommandTest, TuneRequiresAnOccupancyBackendAndSingleThread) {
  const std::string trace = (dir_ / "trace.pcap").string();
  ASSERT_EQ(run_cli({"generate", "--out", trace.c_str(), "--duration", "3",
                     "--rate", "20", "--bandwidth", "1e6"}),
            0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tune"}), 0);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter",
                     "counting", "--tune", "--tune-target", "0.02"}),
            0);
  // No occupancy signal on spi; recommend-only tuning cannot run.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--filter", "spi",
                     "--tune"}),
            2);
  // The tuner samples one live filter; the sharded engine has many.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tune",
                     "--threads", "2"}),
            2);
  // --tune-target without --tune and out-of-range targets are rejected.
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tune-target",
                     "0.02"}),
            2);
  EXPECT_EQ(run_cli({"filter", "--pcap", trace.c_str(), "--tune",
                     "--tune-target", "1.5"}),
            2);
}

TEST_F(CliCommandTest, AttackRejectsBadArguments) {
  EXPECT_EQ(run_cli({"attack", "--scenario", "ddos"}), 2);
  EXPECT_EQ(run_cli({"attack", "--filters", "bitmap,chrome"}), 2);
  EXPECT_EQ(run_cli({"attack", "--intensity", "0"}), 2);
  EXPECT_EQ(run_cli({"attack", "--shards", "0"}), 2);
}

}  // namespace
}  // namespace upbound::cli

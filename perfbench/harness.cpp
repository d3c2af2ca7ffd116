// Benchmark harness for the upbound datapath. Three subcommands, each
// printing JSON lines on stdout for perfbench/run.py:
//
//   gen     Writes a seeded campus-style capture made by src/trace and
//           prints its packet and byte totals as counted at generation.
//   live    Feeds a capture over a loopback UDP tap into UdpTapSource ->
//           EventLoop -> LiveDatapath, pass after pass, with a bounded
//           in-flight window so loopback never drops. One line per pass
//           (wall time) and one with the last pass's verdict totals.
//   layers  The traced run: runs the router on the capture, then drives
//           standalone layer objects with the call sequence the router's
//           verdicts imply, timing each layer's public functions from
//           outside and counting heap allocations with this file's own
//           operator new. Prints per-layer metrics and the agreement
//           checks between the standalone layers and the router.
//
// Router flags shared by live and layers: --network CIDR --filter NAME
// --bits B --k K --m M --dt S --low BPS --high BPS --seed N. The
// blocklist is always on, as with `upbound filter --blocklist`.
#include <malloc.h>
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "filter/bandwidth_meter.h"
#include "filter/blocklist.h"
#include "filter/drop_policy.h"
#include "filter/filter_registry.h"
#include "net/direction.h"
#include "net/live/event_loop.h"
#include "net/live/live_datapath.h"
#include "net/live/udp_tap.h"
#include "net/pcap.h"
#include "sim/edge_router.h"
#include "sim/replay.h"
#include "trace/campus.h"
#include "util/clock.h"
#include "util/rng.h"

// ---------------------------------------------------------------------------
// Heap accounting: every operator new in the process is counted, and the
// usable size of live blocks is tracked so a layer's retained heap can be
// read as a difference.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t size = ((n == 0 ? 1 : n) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace upbound::perfbench {
namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

// The router batch size of `upbound filter` and of the live datapath.
constexpr std::size_t kBatch = 256;
// Packets in flight on the loopback tap: ~1 MB of frames, well under the
// tap's 4 MB receive buffer, so the kernel never drops a datagram.
constexpr std::uint64_t kTapWindowFrames = 1024;
// A live pass that has not seen every verdict by then has lost frames.
constexpr double kLivePassDeadlineSec = 60.0;

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected argument '" + key + "'");
      }
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  }
  double num(const std::string& key) const { return std::stod(str(key)); }
  std::uint64_t u64(const std::string& key) const {
    return std::stoull(str(key));
  }

 private:
  std::map<std::string, std::string> values_;
};

struct RouterSetup {
  ClientNetwork network;
  FilterSpec spec;
  double low = 0;
  double high = 0;
  std::uint64_t seed = 7;

  EdgeRouterConfig config() const {
    EdgeRouterConfig c;
    c.network = network;
    c.track_blocked_connections = true;
    c.seed = seed;
    return c;
  }
  std::unique_ptr<DropPolicy> policy() const {
    return std::make_unique<RedDropPolicy>(low, high);
  }
};

FilterSpec spec_from(const Args& args) {
  MapFilterArgs fa;
  for (const char* key : {"bits", "k", "m", "dt"}) fa.set(key, args.str(key));
  return FilterRegistry::instance().at(args.str("filter")).parse(fa);
}

RouterSetup router_setup_from(const Args& args) {
  const auto cidr = Cidr::parse(args.str("network"));
  if (!cidr) throw std::invalid_argument("bad --network");
  RouterSetup s{ClientNetwork{}, spec_from(args), args.num("low"),
                args.num("high"), args.u64("seed")};
  s.network.add_prefix(*cidr);
  return s;
}

Trace read_trace(const std::string& path) {
  PcapReader reader{path};
  return reader.read_all();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::uint64_t counter(const EdgeRouterStats& stats, const std::string& name) {
  for (const CounterSample& s : stats.stage_counters) {
    if (s.name == name) return s.value;
  }
  throw std::runtime_error("no router counter " + name);
}

bool is_pass(RouterDecision d) {
  return d == RouterDecision::kPassedOutbound ||
         d == RouterDecision::kPassedInbound;
}

// ---------------------------------------------------------------------------
// gen

int cmd_gen(const Args& args) {
  CampusTraceConfig config;
  config.duration = Duration::sec(args.num("duration"));
  config.connections_per_sec = args.num("rate");
  config.bandwidth_bps = args.num("bandwidth");
  config.seed = args.u64("seed");
  const std::string mix = args.str("mix");
  if (mix == "enterprise") {
    config.mix = enterprise_mix();
  } else if (mix != "paper") {
    throw std::invalid_argument("--mix must be paper or enterprise");
  }
  const GeneratedTrace trace = generate_campus_trace(config);
  PcapWriter writer{args.str("out")};
  writer.write_all(trace.packets);
  writer.close();
  std::uint64_t bytes = 0;
  for (const PacketRecord& p : trace.packets) bytes += p.wire_size();
  std::printf("{\"packets\": %llu, \"bytes\": %llu, \"connections\": %zu}\n",
              static_cast<unsigned long long>(writer.packets_written()),
              static_cast<unsigned long long>(bytes), trace.connection_count);
  return 0;
}

// ---------------------------------------------------------------------------
// Loopback tap plumbing shared by the live passes and the capture layer.

struct TapFeed {
  std::vector<std::vector<std::uint8_t>> datagrams;
  std::vector<std::uint64_t> frames;  // records inside each datagram
  std::uint64_t total_frames = 0;
};

// Packs the capture's records, as stored (captured prefix only), into tap
// datagrams of at most 32 KB: [u64 LE usec][u16 LE length][frame] each.
TapFeed make_feed(const std::string& pcap) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f{
      std::fopen(pcap.c_str(), "rb"), &std::fclose};
  if (f == nullptr) throw std::runtime_error("cannot open " + pcap);
  const auto u32 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  };
  std::uint8_t header[24];
  if (std::fread(header, 1, sizeof(header), f.get()) != sizeof(header) ||
      u32(header) != kPcapMagicUsecLe) {
    throw std::runtime_error(pcap + ": not a microsecond pcap");
  }
  constexpr std::size_t kDatagramBytes = 32768;
  TapFeed feed;
  std::vector<std::uint8_t> datagram;
  std::uint64_t frames = 0;
  const auto flush = [&] {
    if (frames == 0) return;
    feed.datagrams.push_back(std::move(datagram));
    feed.frames.push_back(frames);
    datagram = {};
    datagram.reserve(kDatagramBytes);
    frames = 0;
  };
  datagram.reserve(kDatagramBytes);
  std::uint8_t rec[16];
  while (std::fread(rec, 1, sizeof(rec), f.get()) == sizeof(rec)) {
    const std::uint64_t usec =
        static_cast<std::uint64_t>(u32(rec)) * 1'000'000 + u32(rec + 4);
    const std::uint32_t len = u32(rec + 8);
    if (len > 0xFFFF) throw std::runtime_error(pcap + ": bad record");
    if (datagram.size() + 10 + len > kDatagramBytes) flush();
    for (int b = 0; b < 8; ++b) {
      datagram.push_back(static_cast<std::uint8_t>(usec >> (8 * b)));
    }
    datagram.push_back(static_cast<std::uint8_t>(len));
    datagram.push_back(static_cast<std::uint8_t>(len >> 8));
    const std::size_t at = datagram.size();
    datagram.resize(at + len);
    if (std::fread(datagram.data() + at, 1, len, f.get()) != len) {
      throw std::runtime_error(pcap + ": truncated record");
    }
    ++frames;
    ++feed.total_frames;
  }
  flush();
  return feed;
}

// Sends the feed from its own thread, keeping at most kTapWindowFrames
// frames ahead of `consumed`. Joined by the destructor.
class WindowedSender {
 public:
  WindowedSender(std::uint16_t port, const TapFeed& feed,
                 const std::atomic<std::uint64_t>& consumed)
      : thread_([this, port, &feed, &consumed] {
          try {
            live::UdpTapSender tx{port};
            std::uint64_t sent = 0;
            for (std::size_t i = 0; i < feed.datagrams.size(); ++i) {
              while (sent + feed.frames[i] >
                     consumed.load(std::memory_order_acquire) +
                         kTapWindowFrames) {
                if (stop_.load(std::memory_order_relaxed)) return;
                std::this_thread::yield();
              }
              tx.send_datagram(feed.datagrams[i]);
              sent += feed.frames[i];
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "tap sender: %s\n", e.what());
          }
        }) {}
  ~WindowedSender() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  WindowedSender(const WindowedSender&) = delete;
  WindowedSender& operator=(const WindowedSender&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct LivePass {
  double seconds = 0;
  EdgeRouterStats stats;
  live::LiveStats live;
  bool timed_out = false;
};

LivePass live_pass(const RouterSetup& rs, const TapFeed& feed) {
  using namespace upbound::live;
  LivePass out;
  // Declared before the datapath, whose verdict sink writes them.
  std::atomic<std::uint64_t> consumed{0};
  std::uint64_t verdicts = 0;
  VirtualClock clock;  // never advanced: ticks are no-ops, as in replay
  EventLoop loop;
  UdpTapSource::Config tap;
  tap.timestamp_mode = TapTimestampMode::kFromFrames;
  auto source = std::make_unique<UdpTapSource>(tap);
  const std::uint16_t port = source->local_port();
  LiveConfig config;
  config.router = rs.config();
  config.policy_red = true;
  config.policy_low = rs.low;
  config.policy_high = rs.high;
  config.batch_max = kBatch;
  config.clock = &clock;
  config.max_packets = feed.total_frames;
  LiveDatapath datapath{config, rs.spec, std::move(source), loop};
  datapath.set_verdict_sink([&](const PacketRecord&, RouterDecision) {
    consumed.store(++verdicts, std::memory_order_release);
  });
  loop.add_oneshot(Duration::sec(kLivePassDeadlineSec), [&] {
    out.timed_out = true;
    loop.stop();
  });
  if (feed.total_frames == 0) {
    loop.poll_once(0);
  } else {
    const auto t0 = WallClock::now();
    {
      WindowedSender sender{port, feed, consumed};
      loop.run();
      out.seconds = seconds_since(t0);
    }
  }
  datapath.finalize();
  out.stats = datapath.router().stats();
  out.live = datapath.stats();
  return out;
}

void print_stats_fields(const EdgeRouterStats& s) {
  std::printf(
      "\"outbound_packets\": %llu, \"outbound_bytes\": %llu, "
      "\"inbound_passed_packets\": %llu, \"inbound_passed_bytes\": %llu, "
      "\"inbound_dropped_packets\": %llu, \"blocked_drops\": %llu, "
      "\"suppressed_outbound_packets\": %llu, "
      "\"suppressed_outbound_bytes\": %llu, \"ignored_packets\": %llu",
      static_cast<unsigned long long>(s.outbound_packets),
      static_cast<unsigned long long>(s.outbound_bytes),
      static_cast<unsigned long long>(s.inbound_passed_packets),
      static_cast<unsigned long long>(s.inbound_passed_bytes),
      static_cast<unsigned long long>(s.inbound_dropped_packets),
      static_cast<unsigned long long>(s.blocked_drops),
      static_cast<unsigned long long>(s.suppressed_outbound_packets),
      static_cast<unsigned long long>(s.suppressed_outbound_bytes),
      static_cast<unsigned long long>(s.ignored_packets));
}

int cmd_live(const Args& args) {
  const RouterSetup rs = router_setup_from(args);
  const double budget = args.num("seconds");
  const TapFeed feed = make_feed(args.str("pcap"));
  const auto t0 = WallClock::now();
  LivePass last;
  for (int pass = 0;; ++pass) {
    last = live_pass(rs, feed);
    std::printf("{\"pass\": %d, \"seconds\": %.9f, \"packets\": %llu}\n",
                pass, last.seconds,
                static_cast<unsigned long long>(last.live.packets));
    if (feed.total_frames == 0 || last.timed_out) break;
    if (pass >= 2 && seconds_since(t0) >= budget) break;
  }
  std::printf("{\"final\": true, \"offered\": %llu, \"frames\": %llu, "
              "\"packets\": %llu, \"decode_errors\": %llu, "
              "\"malformed\": %llu, \"frames_lost\": %llu, "
              "\"timed_out\": %s, ",
              static_cast<unsigned long long>(feed.total_frames),
              static_cast<unsigned long long>(last.live.frames),
              static_cast<unsigned long long>(last.live.packets),
              static_cast<unsigned long long>(last.live.decode_errors),
              static_cast<unsigned long long>(last.live.malformed),
              static_cast<unsigned long long>(last.live.frames_lost),
              last.timed_out ? "true" : "false");
  print_stats_fields(last.stats);
  std::printf("}\n");
  return 0;
}

// ---------------------------------------------------------------------------
// layers

using Metrics = std::map<std::string, double>;

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

void expect_equal(std::vector<Check>& checks, const std::string& name,
                  std::uint64_t standalone, std::uint64_t router) {
  checks.push_back({name, standalone == router,
                    std::to_string(standalone) + " vs router " +
                        std::to_string(router)});
}

// Times UdpTapSource::drain alone: a sender thread feeds the tap and the
// frames are only counted, not decoded. Returns the frames drained.
std::uint64_t capture_layer(const TapFeed& feed, Metrics& m) {
  using namespace upbound::live;
  UdpTapSource::Config tap;
  tap.timestamp_mode = TapTimestampMode::kFromFrames;
  UdpTapSource source{tap};
  std::atomic<std::uint64_t> consumed{0};
  std::uint64_t frames = 0;
  std::uint64_t drains = 0;
  double drain_seconds = 0;
  const FrameSink sink = [&](std::span<const std::uint8_t>, SimTime) {
    ++frames;
  };
  {
    WindowedSender sender{source.local_port(), feed, consumed};
    const auto deadline = WallClock::now() + std::chrono::seconds(60);
    while (frames < feed.total_frames && WallClock::now() < deadline) {
      pollfd pfd{source.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      // Drain like LiveDatapath::on_capture_readable: until a short drain
      // says the socket and the source's own datagram ring are empty.
      for (;;) {
        const auto t0 = WallClock::now();
        const std::size_t n = source.drain(kBatch, sink);
        drain_seconds += seconds_since(t0);
        if (n > 0) ++drains;
        consumed.store(frames, std::memory_order_release);
        if (n < kBatch) break;
      }
    }
  }
  m["live.capture_ns_per_frame"] =
      drain_seconds * 1e9 /
      static_cast<double>(std::max<std::uint64_t>(frames, 1));
  m["live.frames_per_drain"] =
      static_cast<double>(frames) /
      static_cast<double>(std::max<std::uint64_t>(drains, 1));
  return frames;
}

struct RouterReplay {
  double wall_s = 0;
  double router_s = 0;      // EdgeRouter::process_batch
  double accounting_s = 0;  // account_replay_batch
  double sink_s = 0;        // PcapWriter::write of the passed packets
  std::uint64_t router_allocs = 0;
  EdgeRouterStats stats;
};

// The replay loop of `upbound filter`: 256-packet batches through the
// router, the replay ledger and the survivor pcap. With `traced`, each
// layer call is timed per batch and the router's allocations counted.
RouterReplay replay_router(EdgeRouter& router, const Trace& trace,
                           const RouterSetup& rs, const std::string& sink,
                           std::vector<RouterDecision>& decisions,
                           bool traced) {
  RouterReplay out;
  std::remove(sink.c_str());
  const std::size_t n = trace.size();
  ReplayResult result{Duration::sec(1.0)};
  const auto t0 = WallClock::now();
  PcapWriter writer{sink};
  for (std::size_t start = 0; start < n; start += kBatch) {
    const std::size_t len = std::min(kBatch, n - start);
    const PacketBatch batch{trace.data() + start, len};
    const std::span<RouterDecision> d{decisions.data() + start, len};
    if (!traced) {
      router.process_batch(batch, d);
      account_replay_batch(result, rs.network, batch, d);
      for (std::size_t p = 0; p < len; ++p) {
        if (is_pass(d[p])) writer.write(batch[p]);
      }
      continue;
    }
    const std::uint64_t a0 = allocs();
    const auto r0 = WallClock::now();
    router.process_batch(batch, d);
    const auto r1 = WallClock::now();
    out.router_allocs += allocs() - a0;
    account_replay_batch(result, rs.network, batch, d);
    const auto r2 = WallClock::now();
    for (std::size_t p = 0; p < len; ++p) {
      if (is_pass(d[p])) writer.write(batch[p]);
    }
    const auto r3 = WallClock::now();
    out.router_s += std::chrono::duration<double>(r1 - r0).count();
    out.accounting_s += std::chrono::duration<double>(r2 - r1).count();
    out.sink_s += std::chrono::duration<double>(r3 - r2).count();
  }
  writer.close();
  out.wall_s = seconds_since(t0);
  out.stats = router.stats();
  return out;
}

struct LayerPass {
  Metrics m;
  std::vector<Check> checks;
};

LayerPass layer_pass(const RouterSetup& rs, const std::string& pcap,
                     const std::string& sink_path, std::size_t expected,
                     bool live_workload, const TapFeed& feed, int pass) {
  LayerPass out;
  Metrics& m = out.m;

  // net decode: PcapReader::next, one packet at a time.
  auto t0 = WallClock::now();
  auto reader = std::make_unique<PcapReader>(pcap);
  const double pcap_open_s = seconds_since(t0);
  Trace trace;
  trace.reserve(expected);
  std::uint64_t a0 = allocs();
  t0 = WallClock::now();
  while (auto pkt = reader->next()) trace.push_back(std::move(*pkt));
  const double decode_s = seconds_since(t0);
  const double decode_allocs = static_cast<double>(allocs() - a0);
  reader.reset();
  const std::size_t n = trace.size();
  const double pkts = static_cast<double>(std::max<std::size_t>(n, 1));
  m["net.decode_ns_per_pkt"] = decode_s * 1e9 / pkts;
  m["net.decode_allocs_per_pkt"] = decode_allocs / pkts;

  // net classify: ClientNetwork::classify.
  std::vector<Direction> dirs(n);
  t0 = WallClock::now();
  for (std::size_t i = 0; i < n; ++i) dirs[i] = rs.network.classify(trace[i]);
  m["net.classify_ns_per_pkt"] = seconds_since(t0) * 1e9 / pkts;

  // Set-up: filter through the registry, router, capture.
  t0 = WallClock::now();
  std::unique_ptr<StateFilter> filter = make_state_filter(rs.spec);
  m["setup.filter_s"] = seconds_since(t0);
  std::unique_ptr<DropPolicy> policy = rs.policy();
  t0 = WallClock::now();
  auto router = std::make_unique<EdgeRouter>(rs.config(), std::move(filter),
                                             std::move(policy));
  m["setup.router_s"] = seconds_since(t0);
  if (live_workload) {
    t0 = WallClock::now();
    live::EventLoop loop;
    live::UdpTapSource::Config tap;
    live::UdpTapSource source{tap};
    m["setup.capture_s"] = seconds_since(t0);
  } else {
    m["setup.capture_s"] = pcap_open_s;
  }

  // sim router + accounting + net verdict sink: once with a clock read
  // around each layer call per batch (traced) and once without (plain),
  // in alternating order across passes; the difference is the tracing
  // overhead.
  std::vector<RouterDecision> decisions(n);
  std::vector<RouterDecision> plain_decisions(n);
  RouterReplay traced;
  RouterReplay plain;
  const std::string plain_sink = sink_path + ".plain";
  if (pass % 2 == 0) {
    traced = replay_router(*router, trace, rs, sink_path, decisions, true);
    router.reset();
  }
  {
    EdgeRouter fresh{rs.config(), make_state_filter(rs.spec), rs.policy()};
    plain = replay_router(fresh, trace, rs, plain_sink, plain_decisions,
                          false);
  }
  if (pass % 2 == 1) {
    traced = replay_router(*router, trace, rs, sink_path, decisions, true);
    router.reset();
  }
  const EdgeRouterStats& rst = traced.stats;
  m["sim.router_ns_per_pkt"] = traced.router_s * 1e9 / pkts;
  m["sim.router_allocs_per_pkt"] =
      static_cast<double>(traced.router_allocs) / pkts;
  m["sim.accounting_ns_per_pkt"] = traced.accounting_s * 1e9 / pkts;
  m["net.sink_ns_per_pkt"] = traced.sink_s * 1e9 / pkts;
  m["tracing.overhead_pct"] = (traced.wall_s / plain.wall_s - 1.0) * 100.0;
  out.checks.push_back({"untraced_run_same_verdicts",
                        plain_decisions == decisions && plain.stats == rst,
                        ""});

  std::uint64_t blocked = 0, policy_dropped = 0, inbound_passed = 0;
  for (const RouterDecision d : decisions) {
    blocked += d == RouterDecision::kDroppedBlocked;
    policy_dropped += d == RouterDecision::kDroppedByPolicy;
    inbound_passed += d == RouterDecision::kPassedInbound;
  }

  // filter blocklist: is_blocked on every classified packet (outbound
  // packets of blocked connections are suppressed), block() on each
  // policy drop.
  std::uint64_t bl_calls = 0, bl_hits = 0, bl_inserts = 0;
  std::vector<std::uint8_t> was_blocked(n, 0);
  double blocklist_s = 0;
  {
    const std::int64_t heap0 = g_live_bytes.load(std::memory_order_relaxed);
    auto blocklist = std::make_unique<BlockList>(rs.config().blocklist_ttl);
    t0 = WallClock::now();
    for (std::size_t i = 0; i < n; ++i) {
      if (dirs[i] != Direction::kOutbound && dirs[i] != Direction::kInbound) {
        continue;
      }
      ++bl_calls;
      if (blocklist->is_blocked(trace[i].tuple, trace[i].timestamp)) {
        ++bl_hits;
        was_blocked[i] = 1;
      } else if (decisions[i] == RouterDecision::kDroppedByPolicy) {
        ++bl_inserts;
        blocklist->block(trace[i].tuple, trace[i].timestamp);
      }
    }
    blocklist_s = seconds_since(t0);
    m["filter.blocklist_rss_mb"] =
        static_cast<double>(g_live_bytes.load(std::memory_order_relaxed) -
                            heap0) /
        1e6;
  }
  m["filter.blocklist_ns_per_call"] =
      blocklist_s * 1e9 /
      static_cast<double>(std::max<std::uint64_t>(bl_calls, 1));
  m["filter.blocklist_calls"] = static_cast<double>(bl_calls);
  m["filter.blocklist_hits"] = static_cast<double>(bl_hits);
  m["filter.blocklist_inserts"] = static_cast<double>(bl_inserts);
  expect_equal(out.checks, "blocklist_hits_equal_blocked_verdicts", bl_hits,
               blocked);
  expect_equal(out.checks, "blocklist_inserts_equal_policy_drops",
               bl_inserts, policy_dropped);
  expect_equal(out.checks, "blocklist_calls_equal_router_lookups", bl_calls,
               counter(rst, "blocklist.lookups"));

  // filter state: the router's batch calls on maximal same-direction runs
  // inside each 256-packet batch; blocked outbound packets only advance
  // the clock.
  std::uint64_t marks = 0, lookups = 0, hits = 0, state_calls = 0,
                state_pkts = 0;
  std::vector<std::uint8_t> admitted(n, 0);
  double state_s = 0;
  {
    std::unique_ptr<StateFilter> state = make_state_filter(rs.spec);
    auto admit_buf = std::make_unique<bool[]>(kBatch);
    t0 = WallClock::now();
    for (std::size_t start = 0; start < n; start += kBatch) {
      const std::size_t end = std::min(n, start + kBatch);
      std::size_t i = start;
      while (i < end) {
        const Direction dir = dirs[i];
        if (dir != Direction::kOutbound && dir != Direction::kInbound) {
          state->advance_time(trace[i].timestamp);
          ++i;
          continue;
        }
        std::size_t j = i + 1;
        while (j < end && dirs[j] == dir &&
               trace[j].timestamp >= trace[j - 1].timestamp) {
          ++j;
        }
        if (dir == Direction::kOutbound) {
          std::size_t s = i;
          while (s < j) {
            if (was_blocked[s]) {
              state->advance_time(trace[s].timestamp);
              ++s;
              continue;
            }
            std::size_t e = s + 1;
            while (e < j && !was_blocked[e]) ++e;
            state->record_outbound_batch(
                PacketBatch{trace.data() + s, e - s});
            ++state_calls;
            state_pkts += e - s;
            marks += e - s;
            s = e;
          }
        } else {
          const std::span<bool> admits{admit_buf.get(), j - i};
          state->admits_inbound_batch(PacketBatch{trace.data() + i, j - i},
                                      admits);
          ++state_calls;
          state_pkts += j - i;
          for (std::size_t p = i; p < j; ++p) {
            if (was_blocked[p]) continue;
            ++lookups;
            if (admits[p - i]) {
              ++hits;
              admitted[p] = 1;
            }
          }
        }
        i = j;
      }
    }
    state_s = seconds_since(t0);
  }
  m["filter.state_ns_per_pkt"] = state_s * 1e9 / pkts;
  m["filter.state_pkts_per_call"] =
      static_cast<double>(state_pkts) /
      static_cast<double>(std::max<std::uint64_t>(state_calls, 1));
  m["filter.state_marks"] = static_cast<double>(marks);
  m["filter.state_lookups"] = static_cast<double>(lookups);
  m["filter.state_hit_ratio"] =
      static_cast<double>(hits) /
      static_cast<double>(std::max<std::uint64_t>(lookups, 1));
  expect_equal(out.checks, "state_marks_equal_router_marks", marks,
               counter(rst, "state.marks"));
  expect_equal(out.checks, "state_lookups_equal_router_lookups", lookups,
               counter(rst, "state.lookups"));
  expect_equal(out.checks, "state_admits_equal_router_hits", hits,
               counter(rst, "state.hits"));

  // filter policy: BandwidthMeter over passed upload + Eq. 1 on every
  // unblocked inbound miss, drawing the router's seeded coin.
  std::uint64_t evaluations = 0, drops = 0, coin_mismatches = 0;
  double policy_s = 0;  // meter upkeep and evaluations
  double eval_s = 0;    // evaluations alone
  {
    BandwidthMeter meter{rs.config().meter_window};
    const std::unique_ptr<DropPolicy> eq1 = rs.policy();
    Rng rng{rs.seed};
    t0 = WallClock::now();
    for (std::size_t i = 0; i < n; ++i) {
      if (decisions[i] == RouterDecision::kPassedOutbound) {
        meter.add(trace[i].timestamp, trace[i].wire_size());
      } else if (dirs[i] == Direction::kInbound && !was_blocked[i] &&
                 !admitted[i]) {
        ++evaluations;
        const auto e0 = WallClock::now();
        const double p =
            eq1->drop_probability(meter.bits_per_sec(trace[i].timestamp));
        const bool drop = rng.next_bool(p);
        eval_s += seconds_since(e0);
        drops += drop;
        coin_mismatches +=
            drop != (decisions[i] == RouterDecision::kDroppedByPolicy);
      }
    }
    policy_s = seconds_since(t0);
  }
  m["filter.policy_ns_per_eval"] =
      eval_s * 1e9 /
      static_cast<double>(std::max<std::uint64_t>(evaluations, 1));
  m["filter.policy_evaluations"] = static_cast<double>(evaluations);
  m["filter.policy_drop_ratio"] =
      static_cast<double>(drops) /
      static_cast<double>(std::max<std::uint64_t>(evaluations, 1));
  expect_equal(out.checks, "policy_evaluations_equal_router", evaluations,
               counter(rst, "policy.evaluations"));
  expect_equal(out.checks, "policy_drops_equal_router", drops,
               counter(rst, "policy.drops"));
  expect_equal(out.checks, "policy_coins_match_verdicts", coin_mismatches, 0);
  expect_equal(out.checks, "admits_plus_policy_passes_equal_inbound_passes",
               hits + (evaluations - drops), inbound_passed);

  m["sim.router_unattributed_ns_per_pkt"] =
      m["sim.router_ns_per_pkt"] -
      (m["net.classify_ns_per_pkt"] + blocklist_s * 1e9 / pkts +
       state_s * 1e9 / pkts + policy_s * 1e9 / pkts);

  // live capture and batch shape.
  expect_equal(out.checks, "capture_frames_equal_offered",
               capture_layer(feed, m), feed.total_frames);
  const LivePass lp = live_pass(rs, feed);
  m["live.pkts_per_batch"] =
      static_cast<double>(lp.live.packets) /
      static_cast<double>(std::max<std::uint64_t>(lp.live.batches, 1));
  out.checks.push_back({"live_pass_equals_router", lp.stats == rst, ""});
  return out;
}

int cmd_layers(const Args& args) {
  const RouterSetup rs = router_setup_from(args);
  const std::string pcap = args.str("pcap");
  const double budget = args.num("seconds");
  const bool live_workload = args.has("live");
  // Untimed warm-up read: page cache, and the packet count to reserve.
  const Trace warm = read_trace(pcap);
  const std::size_t expected = warm.size();
  const TapFeed feed = make_feed(pcap);

  const auto t0 = WallClock::now();
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, bool> checks;
  std::map<std::string, std::string> details;
  int passes = 0;
  do {
    const LayerPass pass = layer_pass(rs, pcap, args.str("sink"), expected,
                                      live_workload, feed, passes);
    for (const auto& [k, v] : pass.m) samples[k].push_back(v);
    for (const Check& c : pass.checks) {
      const auto it = checks.find(c.name);
      checks[c.name] = (it == checks.end() ? true : it->second) && c.ok;
      if (!c.ok) details[c.name] = c.detail;
    }
    ++passes;
  } while (seconds_since(t0) < budget);

  std::printf("{\"passes\": %d, \"packets\": %zu, \"metrics\": {", passes,
              expected);
  bool first = true;
  for (const auto& [k, v] : samples) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", k.c_str(), median(v));
    first = false;
  }
  std::printf("}, \"checks\": {");
  first = true;
  for (const auto& [k, ok] : checks) {
    std::printf("%s\"%s\": %s", first ? "" : ", ", k.c_str(),
                ok ? "true" : "false");
    first = false;
  }
  std::printf("}, \"details\": {");
  first = true;
  for (const auto& [k, d] : details) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(), d.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace upbound::perfbench

int main(int argc, char** argv) {
  using namespace upbound::perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness gen|live|layers ...\n");
    return 2;
  }
  try {
    const Args args{argc, argv};
    const std::string cmd = argv[1];
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "live") return cmd_live(args);
    if (cmd == "layers") return cmd_layers(args);
    std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}

// Capture starvation: under sustained load a capture source never reports
// "would block", so a wakeup that drained until it did would never return
// to the event loop. Stop conditions, control commands, ticks and signals
// would then wait forever. These tests drive the datapath with a source
// that is always readable and always full; each stop path must still end
// the loop, because one wakeup drains at most kMaxDrainsPerWakeup batches.
// A capped wakeup must also resume on its own: a source that buffers in
// user space leaves its fd quiet while frames remain.
#include <gtest/gtest.h>

#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "filter/filter_registry.h"
#include "net/headers.h"
#include "net/live/event_loop.h"
#include "net/live/live_datapath.h"
#include "util/clock.h"

namespace upbound::live {
namespace {

/// An always-readable fd (an eventfd whose count is never read) and a
/// drain() that fills every request with the same valid frame. Each frame
/// advances the virtual clock by 100 us, so run_duration elapses after a
/// known number of frames.
class FirehoseSource final : public CaptureSource {
 public:
  explicit FirehoseSource(VirtualClock& clock) : clock_(clock) {
    fd_ = ::eventfd(1, EFD_NONBLOCK | EFD_CLOEXEC);
    PacketRecord pkt;
    pkt.tuple = FiveTuple{Protocol::kUdp, Ipv4Addr{140, 112, 30, 7}, 4000,
                          Ipv4Addr{8, 8, 8, 8}, 53};
    pkt.payload_size = 32;
    frame_ = encode_frame(pkt);
  }
  ~FirehoseSource() override { ::close(fd_); }

  int fd() const override { return fd_; }

  std::size_t drain(std::size_t max_frames, const FrameSink& sink) override {
    for (std::size_t i = 0; i < max_frames; ++i) {
      clock_.advance_by(Duration::usec(100));
      sink(frame_, clock_.now());
    }
    frames_ += max_frames;
    return max_frames;  // never "would block"
  }

  std::string name() const override { return "firehose"; }
  std::uint64_t frames_received() const override { return frames_; }
  std::uint64_t bytes_received() const override {
    return frames_ * frame_.size();
  }

 private:
  VirtualClock& clock_;
  int fd_ = -1;
  std::vector<std::uint8_t> frame_;
  std::uint64_t frames_ = 0;
};

/// A source that pulls a whole burst out of its fd on the first drain
/// (like the tap's recvmmsg ring) and then serves it from user space: its
/// fd is readable once, and never again while frames remain buffered.
class BufferingSource final : public CaptureSource {
 public:
  explicit BufferingSource(std::uint64_t burst) : buffered_(burst) {
    fd_ = ::eventfd(1, EFD_NONBLOCK | EFD_CLOEXEC);
    PacketRecord pkt;
    pkt.tuple = FiveTuple{Protocol::kTcp, Ipv4Addr{140, 112, 30, 9}, 5000,
                          Ipv4Addr{1, 2, 3, 4}, 80};
    pkt.flags.syn = true;
    frame_ = encode_frame(pkt);
  }
  ~BufferingSource() override { ::close(fd_); }

  int fd() const override { return fd_; }

  std::size_t drain(std::size_t max_frames, const FrameSink& sink) override {
    std::uint64_t count = 0;
    (void)!::read(fd_, &count, sizeof(count));  // the kernel queue empties
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(max_frames,
                                                         buffered_));
    for (std::size_t i = 0; i < n; ++i) sink(frame_, SimTime::origin());
    buffered_ -= n;
    frames_ += n;
    return n;
  }

  std::string name() const override { return "buffering"; }
  std::uint64_t frames_received() const override { return frames_; }
  std::uint64_t bytes_received() const override {
    return frames_ * frame_.size();
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> frame_;
  std::uint64_t buffered_;
  std::uint64_t frames_ = 0;
};

/// Kills the test binary if a stop path regresses into a hang, so the
/// suite fails instead of running into the ctest timeout.
struct Watchdog {
  Watchdog() { ::alarm(60); }
  ~Watchdog() { ::alarm(0); }
};

/// Frames one datapath may take past a stop condition: the rest of the
/// wakeup that crossed it, plus the capped shutdown drain.
constexpr std::uint64_t kOvershoot =
    2 * LiveDatapath::kMaxDrainsPerWakeup * 256;

struct Firehose {
  VirtualClock clock;
  EventLoop loop;
  std::unique_ptr<LiveDatapath> datapath;

  explicit Firehose(LiveConfig config,
                    std::unique_ptr<CaptureSource> source = nullptr) {
    config.clock = &clock;
    config.router.network.add_prefix(*Cidr::parse("140.112.30.0/24"));
    MapFilterArgs args;
    args.set("bits", "14");
    if (source == nullptr) source = std::make_unique<FirehoseSource>(clock);
    datapath = std::make_unique<LiveDatapath>(
        config, FilterRegistry::instance().at("bitmap").parse(args),
        std::move(source), loop);
  }
};

TEST(LiveStarvation, MaxPacketsStopsAnAlwaysReadableSource) {
  Watchdog watchdog;
  LiveConfig config;
  config.max_packets = 20'000;
  Firehose f{config};
  f.loop.run();
  EXPECT_TRUE(f.loop.stopped());
  const LiveStats& stats = f.datapath->stats();
  EXPECT_GE(stats.packets, 20'000u);
  EXPECT_LE(stats.packets, 20'000u + kOvershoot);
  // Every delivered frame was processed: none is lost to the cap.
  EXPECT_EQ(stats.packets, stats.frames);
}

TEST(LiveStarvation, RunDurationStopsAnAlwaysReadableSource) {
  Watchdog watchdog;
  LiveConfig config;
  config.run_duration = Duration::sec(2.0);  // 20'000 frames of clock
  Firehose f{config};
  f.loop.run();
  EXPECT_TRUE(f.loop.stopped());
  EXPECT_GE(f.datapath->stats().packets, 20'000u);
  EXPECT_LE(f.datapath->stats().packets, 20'000u + kOvershoot);
}

TEST(LiveStarvation, ControlQuitReachesTheLoop) {
  Watchdog watchdog;
  Firehose f{LiveConfig{}};
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("upbound_starvation_" + std::to_string(::getpid()) + ".sock"))
          .string();
  f.datapath->enable_control(path);
  // The command is queued before the loop runs: it is served only if the
  // capture handler hands the loop back.
  const int client = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(client, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  ASSERT_EQ(::connect(client, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_EQ(::write(client, "quit\n", 5), 5);
  f.loop.run();
  EXPECT_TRUE(f.loop.stopped());
  EXPECT_GT(f.datapath->stats().packets, 0u);
  char reply[16] = {};
  EXPECT_GT(::read(client, reply, sizeof(reply) - 1), 0);
  EXPECT_EQ(std::string{reply}.rfind("OK", 0), 0u) << reply;
  ::close(client);
  ::unlink(path.c_str());
}

TEST(LiveStarvation, CappedWakeupResumesFramesBufferedInTheSource) {
  // Three capped wakeups' worth of frames behind one fd edge: only the
  // datapath's own resume wakeup can deliver the rest.
  constexpr std::uint64_t kBurst =
      3 * LiveDatapath::kMaxDrainsPerWakeup * 256 + 100;
  Firehose f{LiveConfig{}, std::make_unique<BufferingSource>(kBurst)};
  for (int round = 0; round < 50 && f.datapath->stats().packets < kBurst;
       ++round) {
    f.loop.poll_once(10);
  }
  EXPECT_EQ(f.datapath->stats().packets, kBurst);
}

}  // namespace
}  // namespace upbound::live

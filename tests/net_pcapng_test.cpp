#include "net/pcapng.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

#include "net/headers.h"
#include "trace/campus.h"
#include "util/byte_io.h"

namespace upbound {
namespace {

class PcapngTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("upbound_pcapng_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              ".pcapng"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write_bytes(const std::vector<std::uint8_t>& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }

  std::string path_;
};

PacketRecord make_packet(double t_sec, std::uint16_t sport) {
  PacketRecord pkt;
  pkt.timestamp = SimTime::from_sec(t_sec);
  pkt.tuple = FiveTuple{Protocol::kTcp, Ipv4Addr{10, 0, 0, 1}, sport,
                        Ipv4Addr{8, 8, 8, 8}, 443};
  pkt.flags.ack = true;
  pkt.payload = {1, 2, 3, 4, 5, 6, 7};
  pkt.payload_size = 7;
  return pkt;
}

TEST_F(PcapngTest, WriteReadRoundTrip) {
  Trace trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(make_packet(i * 0.25, static_cast<std::uint16_t>(1000 + i)));
  }
  {
    PcapngWriter writer{path_};
    writer.write_all(trace);
    EXPECT_EQ(writer.packets_written(), 20u);
  }
  PcapngReader reader{path_};
  const Trace got = reader.read_all();
  ASSERT_EQ(got.size(), trace.size());
  EXPECT_EQ(reader.blocks_skipped(), 0u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].timestamp, trace[i].timestamp);
    EXPECT_EQ(got[i].tuple, trace[i].tuple);
    EXPECT_EQ(got[i].payload, trace[i].payload);
  }
}

// Each Enhanced Packet Block stores encode_frame(pkt) clipped to the
// headers plus the captured prefix and to snaplen, padded to 32 bits.
TEST_F(PcapngTest, WriterMatchesClippedEncodeFrame) {
  std::mt19937_64 rng{1729};
  const auto uniform = [&rng](std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>{lo, hi}(rng);
  };
  Trace trace;
  for (int i = 0; i < 200; ++i) {
    PacketRecord pkt = make_packet(uniform(0, 100000) * 1e-3,
                                   static_cast<std::uint16_t>(uniform(1, 65535)));
    if (i % 2 == 0) pkt.tuple.protocol = Protocol::kUdp;
    pkt.payload_size = i % 5 == 0 ? 0 : uniform(1, 1460);
    pkt.payload.assign(uniform(0, pkt.payload_size + 9),
                       static_cast<std::uint8_t>(uniform(0, 255)));
    trace.push_back(std::move(pkt));
  }
  for (const std::uint32_t snaplen : {kDefaultSnapLen, 30u, 43u, 61u}) {
    {
      PcapngWriter writer{path_, snaplen};
      writer.write_all(trace);
    }
    std::ifstream in{path_, std::ios::binary};
    const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>{in},
                                          {}};
    std::size_t at = 28 + 20;  // section header + interface description
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const PacketRecord& pkt = trace[i];
      const std::vector<std::uint8_t> frame = encode_frame(pkt);
      const auto orig_len = static_cast<std::uint32_t>(frame.size());
      const std::uint32_t incl_len = std::min<std::uint32_t>(
          orig_len - pkt.payload_size +
              static_cast<std::uint32_t>(pkt.captured_payload().size()),
          snaplen);
      const std::uint32_t padded = (incl_len + 3) & ~3u;
      std::vector<std::uint8_t> want;
      ByteWriter w{want};
      const auto ts = static_cast<std::uint64_t>(pkt.timestamp.usec());
      w.u32le(kPcapngEpb);
      w.u32le(32 + padded);
      w.u32le(0);
      w.u32le(static_cast<std::uint32_t>(ts >> 32));
      w.u32le(static_cast<std::uint32_t>(ts));
      w.u32le(incl_len);
      w.u32le(orig_len);
      w.bytes(std::span<const std::uint8_t>{frame.data(), incl_len});
      while (want.size() % 4 != 0) w.u8(0);
      w.u32le(32 + padded);
      ASSERT_LE(at + want.size(), bytes.size()) << "record " << i;
      ASSERT_TRUE(std::equal(want.begin(), want.end(), bytes.begin() + at))
          << "snaplen " << snaplen << ", record " << i;
      at += want.size();
    }
    EXPECT_EQ(at, bytes.size()) << "snaplen " << snaplen;
  }
}

TEST_F(PcapngTest, CampusTraceSurvivesFormat) {
  CampusTraceConfig config;
  config.duration = Duration::sec(5.0);
  config.connections_per_sec = 30.0;
  config.bandwidth_bps = 1e6;
  config.seed = 4;
  const GeneratedTrace trace = generate_campus_trace(config);
  {
    PcapngWriter writer{path_};
    writer.write_all(trace.packets);
  }
  PcapngReader reader{path_};
  const Trace got = reader.read_all();
  EXPECT_EQ(got.size(), trace.packets.size());
}

TEST_F(PcapngTest, UnknownBlocksSkipped) {
  // Valid SHB + IDB via the writer, then a custom block, then one packet.
  {
    PcapngWriter writer{path_};
    writer.write(make_packet(1.0, 1000));
  }
  // Append an unknown block type and a second valid-file read check needs
  // the block between header and packets: craft manually instead.
  std::vector<std::uint8_t> bytes;
  {
    ByteWriter w{bytes};
    // SHB
    w.u32le(kPcapngShb);
    w.u32le(28);
    w.u32le(kPcapngByteOrderMagic);
    w.u16le(1);
    w.u16le(0);
    w.u32le(0xffffffff);
    w.u32le(0xffffffff);
    w.u32le(28);
    // IDB (Ethernet)
    w.u32le(kPcapngIdb);
    w.u32le(20);
    w.u16le(1);
    w.u16le(0);
    w.u32le(65535);
    w.u32le(20);
    // Unknown block (e.g. Name Resolution, type 4) with 4 bytes of body.
    w.u32le(0x00000004);
    w.u32le(16);
    w.u32le(0xdeadbeef);
    w.u32le(16);
  }
  write_bytes(bytes);
  PcapngReader reader{path_};
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.blocks_skipped(), 1u);
}

TEST_F(PcapngTest, BigEndianSectionReads) {
  // Hand-craft a big-endian section with one EPB.
  const PacketRecord pkt = make_packet(2.0, 1234);
  const auto frame = encode_frame(pkt);
  std::vector<std::uint8_t> bytes;
  ByteWriter w{bytes};
  // SHB, big-endian.
  w.u32be(kPcapngShb);  // palindromic anyway
  w.u32be(28);
  w.u32be(kPcapngByteOrderMagic);
  w.u16be(1);
  w.u16be(0);
  w.u32be(0xffffffff);
  w.u32be(0xffffffff);
  w.u32be(28);
  // IDB.
  w.u32be(kPcapngIdb);
  w.u32be(20);
  w.u16be(1);
  w.u16be(0);
  w.u32be(65535);
  w.u32be(20);
  // EPB.
  const std::uint64_t ts = 2'000'000;
  const std::uint32_t padded =
      (static_cast<std::uint32_t>(frame.size()) + 3u) & ~3u;
  const std::uint32_t total = 32 + padded;
  w.u32be(kPcapngEpb);
  w.u32be(total);
  w.u32be(0);
  w.u32be(static_cast<std::uint32_t>(ts >> 32));
  w.u32be(static_cast<std::uint32_t>(ts));
  w.u32be(static_cast<std::uint32_t>(frame.size()));
  w.u32be(static_cast<std::uint32_t>(frame.size()));
  w.bytes(frame);
  while (bytes.size() % 4 != 0) bytes.push_back(0);
  w.u32be(total);
  write_bytes(bytes);

  PcapngReader reader{path_};
  const auto got = reader.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tuple, pkt.tuple);
  EXPECT_EQ(got->timestamp, pkt.timestamp);
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapngTest, TsresolOptionRespected) {
  // IDB declaring millisecond resolution (if_tsresol = 3).
  const PacketRecord pkt = make_packet(0, 1);
  const auto frame = encode_frame(pkt);
  std::vector<std::uint8_t> bytes;
  ByteWriter w{bytes};
  w.u32le(kPcapngShb);
  w.u32le(28);
  w.u32le(kPcapngByteOrderMagic);
  w.u16le(1);
  w.u16le(0);
  w.u32le(0xffffffff);
  w.u32le(0xffffffff);
  w.u32le(28);
  // IDB with options: if_tsresol(9) len 1 value 3, padded; opt_end.
  w.u32le(kPcapngIdb);
  w.u32le(20 + 8 + 4);
  w.u16le(1);
  w.u16le(0);
  w.u32le(65535);
  w.u16le(9);   // if_tsresol
  w.u16le(1);
  w.u8(3);      // 10^-3 seconds
  w.u8(0);
  w.u8(0);
  w.u8(0);      // padding
  w.u16le(0);   // opt_endofopt
  w.u16le(0);
  w.u32le(20 + 8 + 4);
  // EPB with timestamp 1500 ticks = 1.5 s.
  const std::uint32_t padded =
      (static_cast<std::uint32_t>(frame.size()) + 3u) & ~3u;
  const std::uint32_t total = 32 + padded;
  w.u32le(kPcapngEpb);
  w.u32le(total);
  w.u32le(0);
  w.u32le(0);
  w.u32le(1500);
  w.u32le(static_cast<std::uint32_t>(frame.size()));
  w.u32le(static_cast<std::uint32_t>(frame.size()));
  w.bytes(frame);
  while (bytes.size() % 4 != 0) bytes.push_back(0);
  w.u32le(total);
  write_bytes(bytes);

  PcapngReader reader{path_};
  const auto got = reader.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->timestamp, SimTime::from_sec(1.5));
}

TEST_F(PcapngTest, MalformedFilesRejected) {
  write_bytes({1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_THROW(PcapngReader{path_}, PcapError);

  // Valid-looking SHB with a garbage byte-order magic.
  std::vector<std::uint8_t> bytes;
  ByteWriter w{bytes};
  w.u32le(kPcapngShb);
  w.u32le(28);
  w.u32le(0x12345678);
  write_bytes(bytes);
  EXPECT_THROW(PcapngReader{path_}, PcapError);
}

TEST_F(PcapngTest, ClassicPcapIsNotPcapng) {
  {
    PcapWriter writer{path_};
    writer.write(make_packet(0.0, 1));
  }
  EXPECT_THROW(PcapngReader{path_}, PcapError);
}

TEST_F(PcapngTest, MissingFileThrows) {
  EXPECT_THROW(PcapngReader{"/nonexistent/x.pcapng"}, PcapError);
}

}  // namespace
}  // namespace upbound

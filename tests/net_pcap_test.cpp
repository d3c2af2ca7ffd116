#include "net/pcap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

#include "net/headers.h"

namespace upbound {
namespace {

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("upbound_pcap_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".pcap"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

PacketRecord make_packet(double t_sec, std::uint16_t sport, bool tcp = true) {
  PacketRecord pkt;
  pkt.timestamp = SimTime::from_sec(t_sec);
  pkt.tuple = FiveTuple{tcp ? Protocol::kTcp : Protocol::kUdp,
                        Ipv4Addr{10, 1, 1, 1}, sport, Ipv4Addr{8, 8, 4, 4},
                        443};
  pkt.flags.ack = tcp;
  pkt.payload = {1, 2, 3, 4, 5};
  pkt.payload_size = 5;
  return pkt;
}

TEST_F(PcapTest, WriteReadRoundTrip) {
  Trace trace;
  for (int i = 0; i < 10; ++i) {
    trace.push_back(make_packet(i * 0.5, static_cast<std::uint16_t>(1000 + i),
                                i % 2 == 0));
  }
  {
    PcapWriter writer{path_};
    writer.write_all(trace);
    EXPECT_EQ(writer.packets_written(), 10u);
  }
  PcapReader reader{path_};
  const Trace got = reader.read_all();
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(reader.packets_read(), 10u);
  EXPECT_EQ(reader.frames_skipped(), 0u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].timestamp, trace[i].timestamp);
    EXPECT_EQ(got[i].tuple, trace[i].tuple);
    EXPECT_EQ(got[i].payload, trace[i].payload);
    EXPECT_EQ(got[i].payload_size, trace[i].payload_size);
  }
}

TEST_F(PcapTest, StrippedPayloadRecordsTrueLength) {
  PacketRecord pkt = make_packet(1.0, 2000);
  pkt.payload_size = 1400;  // only 5 bytes captured
  {
    PcapWriter writer{path_};
    writer.write(pkt);
  }
  PcapReader reader{path_};
  const auto got = reader.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload_size, 1400u);
  EXPECT_EQ(got->payload.size(), 5u);
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapTest, SnaplenTruncatesCapturedBytes) {
  PacketRecord pkt = make_packet(1.0, 2000);
  pkt.payload.assign(100, 0xAA);
  pkt.payload_size = 100;
  {
    PcapWriter writer{path_, /*snaplen=*/14 + 20 + 20 + 10};
    writer.write(pkt);
  }
  PcapReader reader{path_};
  const auto got = reader.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload_size, 100u);
  EXPECT_EQ(got->payload.size(), 10u);
}

TEST_F(PcapTest, EmptyFileYieldsNoPackets) {
  { PcapWriter writer{path_}; }
  PcapReader reader{path_};
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapTest, MissingFileThrows) {
  EXPECT_THROW(PcapReader{"/nonexistent/nowhere.pcap"}, PcapError);
}

TEST_F(PcapTest, UnwritableFileThrows) {
  EXPECT_THROW(PcapWriter{"/nonexistent/nowhere.pcap"}, PcapError);
}

TEST_F(PcapTest, BadMagicRejected) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char garbage[24] = "not a pcap file at all";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  EXPECT_THROW(PcapReader{path_}, PcapError);
}

TEST_F(PcapTest, TruncatedHeaderRejected) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::uint8_t partial[4] = {0xd4, 0xc3, 0xb2, 0xa1};
    std::fwrite(partial, 1, sizeof(partial), f);
    std::fclose(f);
  }
  EXPECT_THROW(PcapReader{path_}, PcapError);
}

TEST_F(PcapTest, GlobalHeaderFieldsWellFormed) {
  { PcapWriter writer{path_}; }
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::uint8_t hdr[24];
  ASSERT_EQ(std::fread(hdr, 1, sizeof(hdr), f), sizeof(hdr));
  std::fclose(f);
  // Little-endian microsecond magic.
  EXPECT_EQ(hdr[0], 0xd4);
  EXPECT_EQ(hdr[1], 0xc3);
  EXPECT_EQ(hdr[2], 0xb2);
  EXPECT_EQ(hdr[3], 0xa1);
  EXPECT_EQ(hdr[4], 2);  // version 2.4
  EXPECT_EQ(hdr[6], 4);
  EXPECT_EQ(hdr[20], 1);  // LINKTYPE_ETHERNET
}

TEST_F(PcapTest, LargeTimestampsPreserved) {
  PacketRecord pkt = make_packet(0, 1);
  pkt.timestamp = SimTime::from_usec(7'654'321'123'456LL);  // ~88 days
  {
    PcapWriter writer{path_};
    writer.write(pkt);
  }
  PcapReader reader{path_};
  const auto got = reader.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->timestamp, pkt.timestamp);
}

// The pcap record PcapWriter stored before it wrote headers and prefix
// directly: encode_frame's whole wire-size frame, clipped to the headers
// plus the captured prefix and to snaplen.
std::vector<std::uint8_t> reference_record(const PacketRecord& pkt,
                                           std::uint32_t snaplen) {
  const std::vector<std::uint8_t> frame = encode_frame(pkt);
  const auto orig_len = static_cast<std::uint32_t>(frame.size());
  const std::uint32_t headers = orig_len - pkt.payload_size;
  const std::uint32_t incl_len = std::min<std::uint32_t>(
      headers + static_cast<std::uint32_t>(std::min<std::size_t>(
                    pkt.payload.size(), pkt.payload_size)),
      snaplen);
  const std::int64_t usec = pkt.timestamp.usec();
  std::vector<std::uint8_t> out;
  for (const std::uint32_t v :
       {static_cast<std::uint32_t>(usec / 1'000'000),
        static_cast<std::uint32_t>(usec % 1'000'000), incl_len, orig_len}) {
    for (int b = 0; b < 4; ++b) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  }
  out.insert(out.end(), frame.begin(), frame.begin() + incl_len);
  return out;
}

// A UDP packet whose L4 checksum folds to 0, which the encoder must store
// as 0xffff (0 would mean "no checksum"). `payload_size` >= 2; only the
// first two payload bytes are captured.
PacketRecord udp_checksum_folding_to_zero(std::uint32_t payload_size) {
  PacketRecord pkt = make_packet(3.0, 5353, /*tcp=*/false);
  pkt.payload = {0, 0};
  pkt.payload_size = payload_size;
  // With a zero payload word the stored checksum is ~s0, s0 being the
  // folded sum; the word 0xffff - s0 lifts the sum to 0xffff, whose
  // complement is 0.
  const std::vector<std::uint8_t> frame = encode_frame(pkt);
  const std::size_t csum = kEthernetHeaderSize + kIpv4HeaderSize + 6;
  const auto stored =
      static_cast<std::uint16_t>((frame[csum] << 8) | frame[csum + 1]);
  const auto s0 = static_cast<std::uint16_t>(~stored);
  const auto word = static_cast<std::uint16_t>(0xffff - s0);
  pkt.payload = {static_cast<std::uint8_t>(word >> 8),
                 static_cast<std::uint8_t>(word)};
  return pkt;
}

TEST_F(PcapTest, UdpChecksumFoldingToZeroIsStoredAsAllOnes) {
  for (const std::uint32_t size : {2u, 3u, 900u}) {
    const PacketRecord pkt = udp_checksum_folding_to_zero(size);
    const std::vector<std::uint8_t> frame = encode_frame(pkt);
    const std::size_t csum = kEthernetHeaderSize + kIpv4HeaderSize + 6;
    EXPECT_EQ(frame[csum], 0xff) << size;
    EXPECT_EQ(frame[csum + 1], 0xff) << size;
  }
}

// Property: for seeded random records, every byte PcapWriter stores equals
// the reference record built from encode_frame (whose checksums the
// decoder verifies over the full segment), across TCP and UDP, empty
// payloads, odd and even captured prefixes, prefixes longer than
// payload_size, snaplens below the header length and the UDP checksum
// that folds to zero.
TEST_F(PcapTest, WriterMatchesClippedEncodeFrame) {
  std::mt19937_64 rng{20070625};
  const auto uniform = [&rng](std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>{lo, hi}(rng);
  };
  Trace trace;
  for (int i = 0; i < 400; ++i) {
    PacketRecord pkt;
    pkt.timestamp = SimTime::from_usec(uniform(0, 2'000'000'000));
    pkt.tuple = FiveTuple{uniform(0, 1) ? Protocol::kTcp : Protocol::kUdp,
                          Ipv4Addr{uniform(0, 0xffffffff)},
                          static_cast<std::uint16_t>(uniform(0, 65535)),
                          Ipv4Addr{uniform(0, 0xffffffff)},
                          static_cast<std::uint16_t>(uniform(0, 65535))};
    pkt.flags = TcpFlags::from_byte(static_cast<std::uint8_t>(uniform(0, 255)));
    // A quarter carry no payload; the rest capture a random prefix (odd or
    // even), sometimes longer than payload_size.
    pkt.payload_size = i % 4 == 0 ? 0 : uniform(1, 1460);
    const std::uint32_t captured =
        i % 4 == 0 ? uniform(0, 3) : uniform(0, pkt.payload_size + 40);
    pkt.payload.resize(captured);
    for (std::uint8_t& b : pkt.payload) {
      b = static_cast<std::uint8_t>(uniform(0, 255));
    }
    trace.push_back(std::move(pkt));
  }
  trace.push_back(udp_checksum_folding_to_zero(2));
  trace.push_back(udp_checksum_folding_to_zero(3));
  trace.push_back(udp_checksum_folding_to_zero(1200));

  // The reference's checksums, checked independently of the encoder: the
  // decoder sums the whole zero-filled segment.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto decoded =
        decode_frame(encode_frame(trace[i]), trace[i].timestamp);
    ASSERT_TRUE(decoded.has_value()) << "record " << i;
    EXPECT_TRUE(decoded->ip_checksum_ok) << "record " << i;
    EXPECT_TRUE(decoded->l4_checksum_ok) << "record " << i;
  }

  for (const std::uint32_t snaplen :
       {kDefaultSnapLen, 20u, 41u, 42u, 53u, 54u, 55u, 97u, 600u}) {
    {
      PcapWriter writer{path_, snaplen};
      writer.write_all(trace);
    }
    std::ifstream in{path_, std::ios::binary};
    const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>{in},
                                          {}};
    ASSERT_GE(bytes.size(), 24u);
    std::size_t at = 24;  // past the global header
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const std::vector<std::uint8_t> want =
          reference_record(trace[i], snaplen);
      ASSERT_LE(at + want.size(), bytes.size())
          << "snaplen " << snaplen << ", record " << i;
      ASSERT_TRUE(std::equal(want.begin(), want.end(), bytes.begin() + at))
          << "snaplen " << snaplen << ", record " << i;
      at += want.size();
    }
    EXPECT_EQ(at, bytes.size()) << "snaplen " << snaplen;
  }
}

TEST_F(PcapTest, NextIntoReusesTheRecord) {
  Trace trace;
  for (int i = 0; i < 6; ++i) {
    PacketRecord pkt = make_packet(i * 0.5, static_cast<std::uint16_t>(7 + i),
                                   i % 2 == 0);
    pkt.payload.assign(static_cast<std::size_t>(6 - i), 0x5a);
    pkt.payload_size = 6 - static_cast<std::uint32_t>(i);
    trace.push_back(std::move(pkt));
  }
  {
    PcapWriter writer{path_};
    writer.write_all(trace);
  }
  PcapReader reader{path_};
  PacketRecord slot;
  for (const PacketRecord& want : trace) {
    ASSERT_TRUE(reader.next_into(slot));
    EXPECT_EQ(slot.timestamp, want.timestamp);
    EXPECT_EQ(slot.tuple, want.tuple);
    EXPECT_EQ(slot.flags, want.is_tcp() ? want.flags : TcpFlags{});
    EXPECT_EQ(slot.payload, want.payload);
    EXPECT_EQ(slot.payload_size, want.payload_size);
  }
  EXPECT_FALSE(reader.next_into(slot));
  EXPECT_EQ(reader.packets_read(), trace.size());
}

// Rewrites path_ as its first `keep` bytes.
void truncate_file(const std::string& path, std::size_t keep) {
  std::ifstream in{path, std::ios::binary};
  std::string bytes{std::istreambuf_iterator<char>{in}, {}};
  in.close();
  bytes.resize(keep);
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << bytes;
}

TEST_F(PcapTest, TruncatedRecordsRejected) {
  const PacketRecord pkt = make_packet(1.0, 2000);
  const std::size_t record = 16 + kEthernetHeaderSize + kIpv4HeaderSize +
                             kTcpHeaderSize + pkt.payload.size();
  // Cut inside the second record's header, then inside its body.
  for (const std::size_t cut : {std::size_t{5}, std::size_t{16 + 30}}) {
    {
      PcapWriter writer{path_};
      writer.write(pkt);
      writer.write(pkt);
    }
    truncate_file(path_, 24 + record + cut);
    PcapReader reader{path_};
    PacketRecord slot;
    ASSERT_TRUE(reader.next_into(slot));
    EXPECT_THROW(reader.next_into(slot), PcapError) << "cut " << cut;
  }
}

TEST_F(PcapTest, RecordsLargerThanTheReadWindowDecode) {
  // A 100 KB record (a valid frame plus trailing capture bytes) between two
  // ordinary ones: the read-ahead window grows to hold it.
  PacketRecord big = make_packet(2.0, 3000, /*tcp=*/false);
  big.payload.assign(1200, 0x33);
  big.payload_size = 1200;
  std::vector<std::uint8_t> frame = encode_frame(big);
  frame.resize(100 * 1024, 0xee);
  {
    PcapWriter writer{path_};
    writer.write(make_packet(1.0, 1000));
  }
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const auto len = static_cast<std::uint32_t>(frame.size());
    std::uint8_t rec[16] = {2, 0, 0, 0, 0, 0, 0, 0};
    for (int b = 0; b < 4; ++b) {
      rec[8 + b] = static_cast<std::uint8_t>(len >> (8 * b));
      rec[12 + b] = rec[8 + b];
    }
    std::fwrite(rec, 1, sizeof(rec), f);
    std::fwrite(frame.data(), 1, frame.size(), f);
    std::fclose(f);
  }
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::vector<std::uint8_t> last =
        reference_record(make_packet(3.0, 4000), kDefaultSnapLen);
    std::fwrite(last.data(), 1, last.size(), f);
    std::fclose(f);
  }
  PcapReader reader{path_};
  const Trace got = reader.read_all();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].tuple.src_port, 1000);
  EXPECT_EQ(got[1].tuple, big.tuple);
  EXPECT_EQ(got[1].payload, big.payload);
  EXPECT_EQ(got[2].tuple.src_port, 4000);
  EXPECT_EQ(got[2].timestamp, SimTime::from_sec(3.0));
}

}  // namespace
}  // namespace upbound

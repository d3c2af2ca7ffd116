// pcapng (pcap next generation) reader/writer -- the default on-disk
// format of modern wireshark/tshark captures. Implemented from scratch:
// Section Header, Interface Description, Enhanced Packet and Simple Packet
// blocks, both byte orders, and the if_tsresol timestamp-resolution option.
// Other block types are skipped. Frames decode through the same
// Ethernet/IPv4 codec as classic pcap, so .pcapng captures feed the same
// analyzer/filter pipeline.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/pcap.h"  // PcapError

namespace upbound {

constexpr std::uint32_t kPcapngShb = 0x0A0D0D0A;
constexpr std::uint32_t kPcapngIdb = 0x00000001;
constexpr std::uint32_t kPcapngSpb = 0x00000003;
constexpr std::uint32_t kPcapngEpb = 0x00000006;
constexpr std::uint32_t kPcapngByteOrderMagic = 0x1A2B3C4D;

/// Writes PacketRecords as a single-section, single-interface pcapng file
/// (microsecond timestamps, Ethernet link type).
class PcapngWriter {
 public:
  explicit PcapngWriter(const std::string& path,
                        std::uint32_t snaplen = kDefaultSnapLen);
  ~PcapngWriter();

  PcapngWriter(const PcapngWriter&) = delete;
  PcapngWriter& operator=(const PcapngWriter&) = delete;

  void write(const PacketRecord& pkt);
  void write_all(const Trace& trace);

  std::uint64_t packets_written() const { return packets_written_; }
  void close();

 private:
  std::FILE* file_ = nullptr;
  std::uint32_t snaplen_;
  std::uint64_t packets_written_ = 0;
};

/// Reads Enhanced/Simple Packet Blocks from a pcapng file; non-packet and
/// undecodable blocks are skipped.
class PcapngReader {
 public:
  explicit PcapngReader(const std::string& path);
  ~PcapngReader();

  PcapngReader(const PcapngReader&) = delete;
  PcapngReader& operator=(const PcapngReader&) = delete;

  /// Decodes the next packet into `out`, reusing its payload capacity;
  /// false at end of file. Undecodable blocks are counted and skipped.
  bool next_into(PacketRecord& out);
  std::optional<PacketRecord> next();
  Trace read_all();

  std::uint64_t packets_read() const { return packets_read_; }
  std::uint64_t blocks_skipped() const { return blocks_skipped_; }

 private:
  bool read_block(std::vector<std::uint8_t>& body, std::uint32_t& type);
  void parse_section_header(std::span<const std::uint8_t> body);
  void parse_interface_block(std::span<const std::uint8_t> body);

  std::FILE* file_ = nullptr;
  bool swap_ = false;
  /// Body of the block being parsed, reused across blocks.
  std::vector<std::uint8_t> block_;
  /// Ticks per second of EPB timestamps for each interface (default 1e6).
  std::vector<std::uint64_t> if_ticks_per_sec_;
  std::uint64_t packets_read_ = 0;
  std::uint64_t blocks_skipped_ = 0;
};

}  // namespace upbound

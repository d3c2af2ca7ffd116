// Classic pcap (v2.4) file reader/writer, implemented from scratch.
//
// The paper captures traces with tcpdump and replays them through the
// filters; this module gives the same libpcap-compatible fit without the
// dependency. Both byte orders and both microsecond/nanosecond timestamp
// magics are read; writing always uses the little-endian microsecond magic,
// which every libpcap tool accepts.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/headers.h"
#include "net/packet.h"

namespace upbound {

constexpr std::uint32_t kPcapMagicUsecLe = 0xa1b2c3d4;
constexpr std::uint32_t kPcapMagicNsecLe = 0xa1b23c4d;
constexpr std::uint32_t kPcapLinkTypeEthernet = 1;
constexpr std::uint32_t kDefaultSnapLen = 65535;

/// Thrown on malformed pcap files and I/O failures.
class PcapError : public std::runtime_error {
 public:
  explicit PcapError(const std::string& what) : std::runtime_error(what) {}
};

/// What a capture record stores of `pkt`'s encoded frame: the headers,
/// which encode_stored_frame writes into the caller's buffer, then the
/// captured payload prefix, the two clipped together to `snaplen`.
struct StoredFrame {
  std::uint32_t orig_len = 0;      // wire length, zero fill included
  std::uint32_t incl_len = 0;      // bytes stored
  std::uint32_t header_bytes = 0;  // stored bytes from the header buffer
  std::span<const std::uint8_t> prefix;  // stored bytes of the payload
};
StoredFrame encode_stored_frame(
    const PacketRecord& pkt, std::uint32_t snaplen,
    std::span<std::uint8_t, kMaxFrameHeaderSize> headers);

/// Streams PacketRecords to a pcap file. Each record stores the frame's
/// headers (encode_frame_headers) and the captured payload prefix; the
/// rest of the payload is only reported in orig_len (incl_len < orig_len)
/// exactly like a snaplen-limited capture. The stored bytes are those of
/// encode_frame(pkt) clipped to headers + prefix and snaplen; writing
/// allocates nothing.
class PcapWriter {
 public:
  explicit PcapWriter(const std::string& path,
                      std::uint32_t snaplen = kDefaultSnapLen);
  ~PcapWriter();

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  void write(const PacketRecord& pkt);
  void write_all(const Trace& trace);

  std::uint64_t packets_written() const { return packets_written_; }

  /// Flushes and closes; called by the destructor if not called explicitly.
  void close();

 private:
  std::FILE* file_ = nullptr;
  std::uint32_t snaplen_;
  std::uint64_t packets_written_ = 0;
};

/// Reads a pcap file into PacketRecords, skipping non-IPv4/TCP/UDP frames.
/// Records are read ahead in 64 KB chunks and decoded in place from the
/// read buffer.
class PcapReader {
 public:
  explicit PcapReader(const std::string& path);
  ~PcapReader();

  PcapReader(const PcapReader&) = delete;
  PcapReader& operator=(const PcapReader&) = delete;

  /// Decodes the next decodable packet into `out`, reusing its payload
  /// capacity; false at end of file. Malformed frames and unsupported
  /// protocols are counted and skipped.
  bool next_into(PacketRecord& out);

  /// Next decodable packet, or nullopt at end of file (next_into into a
  /// fresh record).
  std::optional<PacketRecord> next();

  /// Reads the remaining packets.
  Trace read_all();

  std::uint64_t packets_read() const { return packets_read_; }
  std::uint64_t frames_skipped() const { return frames_skipped_; }
  bool nanosecond_resolution() const { return nanosecond_; }

 private:
  /// Makes at least `n` unread bytes available at buf_[pos_]; false when
  /// the file ends first.
  bool fill(std::size_t n);

  std::FILE* file_ = nullptr;
  bool swap_ = false;        // file byte order != host order
  bool nanosecond_ = false;  // magic selects usec vs nsec timestamps
  std::uint64_t packets_read_ = 0;
  std::uint64_t frames_skipped_ = 0;
  // Read-ahead window over the file: buf_[pos_, end_) is unread. Left
  // uninitialized, so opening a reader touches none of it.
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t buf_size_ = 0;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

}  // namespace upbound

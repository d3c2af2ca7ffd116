// Wire-format codecs for Ethernet II / IPv4 / TCP / UDP frames, plus the
// Internet checksum. These give the pcap reader/writer real, verifiable
// frames -- traces written by this library parse under tcpdump/wireshark,
// and real captures replay through the pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.h"

namespace upbound {

/// RFC 1071 Internet checksum over `data` (16-bit one's-complement sum).
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// Largest header block of an encoded frame: Ethernet + IPv4 + TCP.
constexpr std::size_t kMaxFrameHeaderSize =
    kEthernetHeaderSize + kIpv4HeaderSize + kTcpHeaderSize;

/// Writes the Ethernet, IPv4 and L4 headers of `pkt`'s encoded frame into
/// `out` and returns their length (54 for TCP, 42 for UDP). The bytes and
/// checksums are exactly the first bytes of encode_frame(pkt); the frame
/// continues with pkt.captured_payload() and then zero fill. Allocates
/// nothing, so capture writers store headers plus prefix per packet
/// without building the wire-size frame.
std::size_t encode_frame_headers(
    const PacketRecord& pkt,
    std::span<std::uint8_t, kMaxFrameHeaderSize> out);

/// Encodes `pkt` as a complete Ethernet frame. Payload bytes beyond the
/// captured prefix are zero-filled up to payload_size so IP total lengths
/// stay truthful. MAC addresses are synthesized from the IP addresses.
std::vector<std::uint8_t> encode_frame(const PacketRecord& pkt);

/// Outcome of decoding one captured frame.
struct DecodedFrame {
  PacketRecord packet;
  bool ip_checksum_ok = false;
  bool l4_checksum_ok = false;
};

/// Decodes an Ethernet frame captured with `orig_len` original bytes (the
/// capture may be truncated; payload_size is recovered from the IP header).
/// Returns nullopt for non-IPv4 or non-TCP/UDP frames and malformed headers.
std::optional<DecodedFrame> decode_frame(std::span<const std::uint8_t> frame,
                                         SimTime timestamp);

/// decode_frame into a caller-owned PacketRecord, reusing its payload
/// capacity -- capture readers and the live batch ring decode every frame
/// without allocating. Every field of `out` is (re)assigned; on false
/// `out` is unspecified. Same acceptance as decode_frame.
bool decode_frame_into(std::span<const std::uint8_t> frame, SimTime timestamp,
                       PacketRecord& out);

}  // namespace upbound

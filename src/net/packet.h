// PacketRecord: the in-memory representation of one captured/generated
// packet. Mirrors the paper's header traces: L3/L4 metadata is always
// present, while payload bytes may be truncated to the classification
// prefix (payload_size keeps the true on-wire length so throughput
// accounting stays exact).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/five_tuple.h"
#include "util/time.h"

namespace upbound {

/// TCP control flags (subset relevant to connection tracking).
struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  bool psh = false;

  bool operator==(const TcpFlags&) const = default;

  std::uint8_t to_byte() const;
  static TcpFlags from_byte(std::uint8_t b);

  std::string to_string() const;
};

constexpr std::uint32_t kEthernetHeaderSize = 14;
constexpr std::uint32_t kIpv4HeaderSize = 20;    // no options
constexpr std::uint32_t kTcpHeaderSize = 20;     // no options
constexpr std::uint32_t kUdpHeaderSize = 8;

struct PacketRecord {
  SimTime timestamp;
  FiveTuple tuple;       // sender-first as seen on the wire
  TcpFlags flags;        // meaningful for TCP only
  std::uint32_t payload_size = 0;     // true L4 payload length on the wire
  std::vector<std::uint8_t> payload;  // captured prefix, <= payload_size
  /// False when a checksum failed verification on capture; such packets
  /// are not examined by the classifier (paper Section 3.2). Truncated
  /// captures that cannot be verified stay true.
  bool checksum_valid = true;

  /// Total frame length on the wire (Ethernet + IPv4 + L4 + payload).
  std::uint32_t wire_size() const {
    const std::uint32_t l4 =
        tuple.protocol == Protocol::kTcp ? kTcpHeaderSize : kUdpHeaderSize;
    return kEthernetHeaderSize + kIpv4HeaderSize + l4 + payload_size;
  }

  /// The captured payload bytes a frame carries: at most payload_size.
  std::span<const std::uint8_t> captured_payload() const {
    return {payload.data(),
            std::min<std::size_t>(payload.size(), payload_size)};
  }

  bool is_tcp() const { return tuple.protocol == Protocol::kTcp; }
  bool is_udp() const { return tuple.protocol == Protocol::kUdp; }

  /// True when this is a bare SYN (connection-opening) packet.
  bool is_syn_only() const { return is_tcp() && flags.syn && !flags.ack; }

  std::string to_string() const;
};

/// A time-ordered packet trace.
using Trace = std::vector<PacketRecord>;

/// True when `trace` timestamps are non-decreasing.
bool is_time_sorted(const Trace& trace);

}  // namespace upbound

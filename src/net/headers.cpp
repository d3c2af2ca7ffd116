#include "net/headers.h"

#include <algorithm>
#include <array>

#include "util/byte_io.h"

namespace upbound {

namespace {

constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

// Pseudo-header checksum input shared by TCP and UDP.
std::uint32_t pseudo_header_sum(const FiveTuple& t, std::uint32_t l4_len) {
  std::uint32_t sum = 0;
  const std::uint32_t s = t.src_addr.value();
  const std::uint32_t d = t.dst_addr.value();
  sum += (s >> 16) + (s & 0xffff);
  sum += (d >> 16) + (d & 0xffff);
  sum += static_cast<std::uint8_t>(t.protocol);
  sum += l4_len & 0xffff;
  sum += l4_len >> 16;
  return sum;
}

std::uint16_t fold(std::uint32_t sum) {
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

std::uint32_t sum_bytes(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;
  return sum;
}

void put16be(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

void put32be(std::uint8_t* p, std::uint32_t v) {
  put16be(p, static_cast<std::uint16_t>(v >> 16));
  put16be(p + 2, static_cast<std::uint16_t>(v));
}

void put_mac_for(std::uint8_t* p, std::uint32_t addr) {
  // Locally administered unicast MAC derived from the IP; purely cosmetic.
  p[0] = 0x02;
  p[1] = 0x42;
  put32be(p + 2, addr);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return fold(sum_bytes(data));
}

std::size_t encode_frame_headers(
    const PacketRecord& pkt,
    std::span<std::uint8_t, kMaxFrameHeaderSize> out) {
  // Every field is read before the first store and written at a fixed
  // offset: byte stores may alias anything, so a running write position
  // or re-read packet fields would serialize the stores.
  const bool tcp = pkt.tuple.protocol == Protocol::kTcp;
  const std::uint32_t src = pkt.tuple.src_addr.value();
  const std::uint32_t dst = pkt.tuple.dst_addr.value();
  const std::uint16_t src_port = pkt.tuple.src_port;
  const std::uint16_t dst_port = pkt.tuple.dst_port;
  const std::uint8_t proto = static_cast<std::uint8_t>(pkt.tuple.protocol);
  const std::uint8_t flags = pkt.flags.to_byte();
  const std::span<const std::uint8_t> prefix = pkt.captured_payload();
  const std::uint32_t l4_header = tcp ? kTcpHeaderSize : kUdpHeaderSize;
  const std::uint32_t l4_len = l4_header + pkt.payload_size;
  const std::uint32_t ip_total = kIpv4HeaderSize + l4_len;
  const std::uint32_t pseudo = pseudo_header_sum(pkt.tuple, l4_len);

  // Ethernet II.
  std::uint8_t* const eth = out.data();
  put_mac_for(eth, dst);
  put_mac_for(eth + 6, src);
  put16be(eth + 12, kEtherTypeIpv4);

  // IPv4 (no options).
  std::uint8_t* const ip = eth + kEthernetHeaderSize;
  ip[0] = 0x45;  // version 4, IHL 5
  ip[1] = 0;     // DSCP/ECN
  put16be(ip + 2, static_cast<std::uint16_t>(ip_total));
  put16be(ip + 4, 0);       // identification
  put16be(ip + 6, 0x4000);  // flags: DF
  ip[8] = 64;               // TTL
  ip[9] = proto;
  put32be(ip + 12, src);
  put32be(ip + 16, dst);
  // Checksums are summed from the field values rather than read back from
  // the stored bytes; zero fields are left out.
  const std::uint32_t ip_sum =
      0x4500u + static_cast<std::uint16_t>(ip_total) + 0x4000u +
      (64u << 8 | proto) + (src >> 16) + (src & 0xffff) + (dst >> 16) +
      (dst & 0xffff);
  put16be(ip + 10, fold(ip_sum));

  // L4 header.
  std::uint8_t* const l4 = ip + kIpv4HeaderSize;
  put16be(l4, src_port);
  put16be(l4 + 2, dst_port);
  if (tcp) {
    put32be(l4 + 4, 0);  // seq (not modeled)
    put32be(l4 + 8, 0);  // ack (not modeled)
    l4[12] = 0x50;       // data offset 5
    l4[13] = flags;
    put16be(l4 + 14, 65535);  // window
    put16be(l4 + 16, 0);      // checksum placeholder
    put16be(l4 + 18, 0);      // urgent pointer
  } else {
    put16be(l4 + 4, static_cast<std::uint16_t>(l4_len));
    put16be(l4 + 6, 0);  // checksum placeholder
  }

  // L4 checksum over pseudo-header + segment. The uncaptured payload is
  // zero fill, which adds nothing to a one's-complement sum, and the L4
  // header has even length, so summing the captured prefix on its own
  // pairs its bytes exactly as the whole segment would.
  const std::uint32_t l4_header_sum =
      src_port + dst_port +
      (tcp ? 0x5000u + flags + 65535u : static_cast<std::uint16_t>(l4_len));
  const std::uint32_t sum = pseudo + l4_header_sum + sum_bytes(prefix);
  std::uint16_t l4_csum = fold(sum);
  if (!tcp && l4_csum == 0) l4_csum = 0xffff;  // UDP: 0 means "no checksum"
  put16be(l4 + (tcp ? 16 : 6), l4_csum);

  return kEthernetHeaderSize + kIpv4HeaderSize + l4_header;
}

std::vector<std::uint8_t> encode_frame(const PacketRecord& pkt) {
  std::array<std::uint8_t, kMaxFrameHeaderSize> headers;
  const std::size_t header_len = encode_frame_headers(pkt, headers);
  const std::span<const std::uint8_t> prefix = pkt.captured_payload();
  // Headers, the captured prefix, then zero fill to the declared size.
  std::vector<std::uint8_t> out(header_len + pkt.payload_size, 0);
  std::copy_n(headers.begin(), header_len, out.begin());
  std::copy(prefix.begin(), prefix.end(), out.begin() + header_len);
  return out;
}

namespace {

// The one frame decoder behind decode_frame and decode_frame_into.
bool decode_into(std::span<const std::uint8_t> frame, SimTime timestamp,
                 PacketRecord& pkt, bool& ip_checksum_ok,
                 bool& l4_checksum_ok) {
  try {
    // `pkt` may be a reused buffer: reset every field that is only
    // conditionally written below (flags stay default for UDP, checksum
    // verdicts only resolve when the capture holds the full segment).
    ip_checksum_ok = false;
    l4_checksum_ok = false;
    pkt.flags = TcpFlags{};
    pkt.checksum_valid = true;

    ByteReader r{frame};
    r.skip(12);  // MACs
    if (r.u16be() != kEtherTypeIpv4) return false;

    const std::size_t ip_begin = r.position();
    const std::uint8_t ver_ihl = r.u8();
    if ((ver_ihl >> 4) != 4) return false;
    const std::size_t ihl = (ver_ihl & 0x0f) * 4u;
    if (ihl < kIpv4HeaderSize) return false;
    r.skip(1);  // DSCP
    const std::uint16_t ip_total = r.u16be();
    r.skip(4);  // id, flags/frag
    r.skip(1);  // TTL
    const std::uint8_t proto = r.u8();
    r.skip(2);  // header checksum (verified below)
    const std::uint32_t src = r.u32be();
    const std::uint32_t dst = r.u32be();
    if (ihl > kIpv4HeaderSize) r.skip(ihl - kIpv4HeaderSize);

    if (proto != static_cast<std::uint8_t>(Protocol::kTcp) &&
        proto != static_cast<std::uint8_t>(Protocol::kUdp)) {
      return false;
    }
    if (ip_total < ihl) return false;

    pkt.timestamp = timestamp;
    pkt.tuple.protocol = static_cast<Protocol>(proto);
    pkt.tuple.src_addr = Ipv4Addr{src};
    pkt.tuple.dst_addr = Ipv4Addr{dst};

    const std::size_t ip_captured =
        std::min<std::size_t>(frame.size() - ip_begin, ihl);
    ip_checksum_ok =
        ip_captured >= ihl &&
        internet_checksum(frame.subspan(ip_begin, ihl)) == 0;

    const std::size_t l4_begin = r.position();
    const std::uint32_t l4_total = ip_total - static_cast<std::uint32_t>(ihl);
    std::size_t l4_header;
    std::uint16_t udp_checksum_field = 1;  // nonzero unless UDP says "none"
    if (pkt.tuple.protocol == Protocol::kTcp) {
      pkt.tuple.src_port = r.u16be();
      pkt.tuple.dst_port = r.u16be();
      r.skip(8);  // seq, ack
      const std::uint8_t offset = r.u8();
      l4_header = (offset >> 4) * 4u;
      if (l4_header < kTcpHeaderSize || l4_header > l4_total) {
        return false;
      }
      pkt.flags = TcpFlags::from_byte(r.u8());
      r.skip(4);  // window, checksum (verified below)
      r.skip(2);  // urgent
      if (l4_header > kTcpHeaderSize) r.skip(l4_header - kTcpHeaderSize);
    } else {
      pkt.tuple.src_port = r.u16be();
      pkt.tuple.dst_port = r.u16be();
      const std::uint16_t udp_len = r.u16be();
      udp_checksum_field = r.u16be();
      l4_header = kUdpHeaderSize;
      if (udp_len < kUdpHeaderSize || udp_len > l4_total) return false;
    }

    pkt.payload_size = l4_total - static_cast<std::uint32_t>(l4_header);

    // Captured payload may be shorter than the on-wire payload (snaplen).
    const std::size_t captured_payload =
        std::min<std::size_t>(r.remaining(), pkt.payload_size);
    const auto payload = r.bytes(captured_payload);
    pkt.payload.assign(payload.begin(), payload.end());

    // L4 checksum verification requires the full segment in the capture.
    const std::size_t l4_captured = frame.size() - (ip_begin + ihl);
    if (l4_captured >= l4_total) {
      if (pkt.tuple.protocol == Protocol::kUdp && udp_checksum_field == 0) {
        l4_checksum_ok = true;  // UDP checksum disabled by sender
      } else {
        std::uint32_t sum = pseudo_header_sum(pkt.tuple, l4_total);
        sum += sum_bytes(frame.subspan(ip_begin + ihl, l4_total));
        l4_checksum_ok = fold(sum) == 0;
      }
      pkt.checksum_valid = l4_checksum_ok;
      (void)l4_begin;
    }
    if (ip_captured >= ihl && !ip_checksum_ok) {
      pkt.checksum_valid = false;
    }
    return true;
  } catch (const ByteUnderflow&) {
    return false;
  }
}

}  // namespace

bool decode_frame_into(std::span<const std::uint8_t> frame,
                       SimTime timestamp, PacketRecord& out) {
  bool ip_checksum_ok = false;
  bool l4_checksum_ok = false;
  return decode_into(frame, timestamp, out, ip_checksum_ok, l4_checksum_ok);
}

std::optional<DecodedFrame> decode_frame(std::span<const std::uint8_t> frame,
                                         SimTime timestamp) {
  DecodedFrame out;
  if (!decode_into(frame, timestamp, out.packet, out.ip_checksum_ok,
                   out.l4_checksum_ok)) {
    return std::nullopt;
  }
  return out;
}

}  // namespace upbound

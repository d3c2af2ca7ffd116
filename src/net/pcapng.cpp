#include "net/pcapng.h"

#include <algorithm>
#include <array>

#include "net/headers.h"
#include "util/byte_io.h"

namespace upbound {

namespace {

void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(std::span<const std::uint8_t> data, std::size_t off,
                      bool swap) {
  std::uint32_t v = static_cast<std::uint32_t>(data[off]) |
                    (static_cast<std::uint32_t>(data[off + 1]) << 8) |
                    (static_cast<std::uint32_t>(data[off + 2]) << 16) |
                    (static_cast<std::uint32_t>(data[off + 3]) << 24);
  return swap ? bswap32(v) : v;
}

std::uint16_t get_u16(std::span<const std::uint8_t> data, std::size_t off,
                      bool swap) {
  const std::uint16_t v = static_cast<std::uint16_t>(
      data[off] | (static_cast<std::uint16_t>(data[off + 1]) << 8));
  return swap ? static_cast<std::uint16_t>((v >> 8) | (v << 8)) : v;
}

}  // namespace

PcapngWriter::PcapngWriter(const std::string& path, std::uint32_t snaplen)
    : snaplen_(snaplen) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) throw PcapError("cannot open for writing: " + path);

  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  // Section Header Block.
  w.u32le(kPcapngShb);
  w.u32le(28);                      // block total length (no options)
  w.u32le(kPcapngByteOrderMagic);
  w.u16le(1);                       // major
  w.u16le(0);                       // minor
  w.u32le(0xffffffff);              // section length unknown
  w.u32le(0xffffffff);
  w.u32le(28);
  // Interface Description Block (Ethernet, default usec resolution).
  w.u32le(kPcapngIdb);
  w.u32le(20);
  w.u16le(1);  // LINKTYPE_ETHERNET
  w.u16le(0);  // reserved
  w.u32le(snaplen_);
  w.u32le(20);
  if (std::fwrite(out.data(), 1, out.size(), file_) != out.size()) {
    throw PcapError("short write on pcapng header");
  }
}

PcapngWriter::~PcapngWriter() { close(); }

void PcapngWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void PcapngWriter::write(const PacketRecord& pkt) {
  if (file_ == nullptr) throw PcapError("write after close");

  // Like PcapWriter::write: the block header and the frame headers share
  // one buffer, followed by the captured payload prefix.
  std::array<std::uint8_t, 28 + kMaxFrameHeaderSize> head;
  const StoredFrame frame = encode_stored_frame(
      pkt, snaplen_,
      std::span<std::uint8_t, kMaxFrameHeaderSize>{head.data() + 28,
                                                   kMaxFrameHeaderSize});
  const std::uint64_t ts = static_cast<std::uint64_t>(pkt.timestamp.usec());
  const std::uint32_t padded = (frame.incl_len + 3) & ~3u;
  const std::uint32_t total = 32 + padded;
  put_u32le(head.data() + 0, kPcapngEpb);
  put_u32le(head.data() + 4, total);
  put_u32le(head.data() + 8, 0);  // interface id
  put_u32le(head.data() + 12, static_cast<std::uint32_t>(ts >> 32));
  put_u32le(head.data() + 16, static_cast<std::uint32_t>(ts));
  put_u32le(head.data() + 20, frame.incl_len);
  put_u32le(head.data() + 24, frame.orig_len);
  // Zero padding to 32 bits, then the trailing copy of the block length.
  std::uint8_t tail[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const std::size_t pad = padded - frame.incl_len;
  put_u32le(tail + pad, total);

  const std::size_t head_len = 28 + frame.header_bytes;
  if (std::fwrite(head.data(), 1, head_len, file_) != head_len ||
      (!frame.prefix.empty() &&
       std::fwrite(frame.prefix.data(), 1, frame.prefix.size(), file_) !=
           frame.prefix.size()) ||
      std::fwrite(tail, 1, pad + 4, file_) != pad + 4) {
    throw PcapError("short write on pcapng packet block");
  }
  ++packets_written_;
}

void PcapngWriter::write_all(const Trace& trace) {
  for (const PacketRecord& pkt : trace) write(pkt);
}

PcapngReader::PcapngReader(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) throw PcapError("cannot open for reading: " + path);

  std::vector<std::uint8_t> body;
  std::uint32_t type = 0;
  if (!read_block(body, type) || type != kPcapngShb) {
    throw PcapError("pcapng: file does not start with a section header");
  }
  parse_section_header(body);
}

PcapngReader::~PcapngReader() {
  if (file_ != nullptr) std::fclose(file_);
}

// Reads one block's body (without the type/length framing). The first
// block must be read with swap_ == false handling both orders: the SHB's
// total length is endian-ambiguous until its byte-order magic is parsed,
// so this uses a two-step read for SHBs.
bool PcapngReader::read_block(std::vector<std::uint8_t>& body,
                              std::uint32_t& type) {
  std::uint8_t head[8];
  const std::size_t got = std::fread(head, 1, sizeof(head), file_);
  if (got == 0) return false;
  if (got != sizeof(head)) throw PcapError("pcapng: truncated block header");

  type = get_u32(head, 0, false);  // SHB type is palindromic; others use
                                   // the section's established order
  if (type != kPcapngShb) type = get_u32(head, 0, swap_);

  std::uint32_t total = get_u32(head, 4, swap_);
  if (type == kPcapngShb) {
    // Peek the byte-order magic to disambiguate the length.
    std::uint8_t magic_bytes[4];
    if (std::fread(magic_bytes, 1, 4, file_) != 4) {
      throw PcapError("pcapng: truncated section header");
    }
    const std::uint32_t magic = get_u32(magic_bytes, 0, false);
    if (magic == kPcapngByteOrderMagic) {
      swap_ = false;
    } else if (bswap32(magic) == kPcapngByteOrderMagic) {
      swap_ = true;
    } else {
      throw PcapError("pcapng: bad byte-order magic");
    }
    total = get_u32(head, 4, swap_);
    if (total < 28 || total % 4 != 0) {
      throw PcapError("pcapng: bad section header length");
    }
    // Body = everything after type+length (total - 8 bytes), of which the
    // 4 magic bytes are already consumed.
    body.resize(total - 8);
    std::copy(magic_bytes, magic_bytes + 4, body.begin());
    if (std::fread(body.data() + 4, 1, body.size() - 4, file_) !=
        body.size() - 4) {
      throw PcapError("pcapng: truncated section header body");
    }
    return true;
  }

  if (total < 12 || total % 4 != 0 || total > 256 * 1024 * 1024) {
    throw PcapError("pcapng: bad block length");
  }
  body.resize(total - 8);
  if (std::fread(body.data(), 1, body.size(), file_) != body.size()) {
    throw PcapError("pcapng: truncated block body");
  }
  // Verify the trailing duplicate length.
  if (get_u32(body, body.size() - 4, swap_) != total) {
    throw PcapError("pcapng: trailing length mismatch");
  }
  body.resize(body.size() - 4);
  return true;
}

void PcapngReader::parse_section_header(std::span<const std::uint8_t> body) {
  // body: magic(4) version(4) section_length(8) options... trailer already
  // included for SHB (read_block keeps it; harmless).
  if (body.size() < 16) throw PcapError("pcapng: short section header");
  if_ticks_per_sec_.clear();  // interfaces are per-section
}

void PcapngReader::parse_interface_block(std::span<const std::uint8_t> body) {
  // body: linktype(2) reserved(2) snaplen(4) options...
  if (body.size() < 8) throw PcapError("pcapng: short interface block");
  const std::uint16_t link_type = get_u16(body, 0, swap_);
  if (link_type != 1) {
    // Non-Ethernet interface: record a sentinel so its packets skip.
    if_ticks_per_sec_.push_back(0);
    return;
  }
  // Scan options for if_tsresol (code 9, one byte).
  std::uint64_t ticks = 1'000'000;
  std::size_t off = 8;
  while (off + 4 <= body.size()) {
    const std::uint16_t code = get_u16(body, off, swap_);
    const std::uint16_t len = get_u16(body, off + 2, swap_);
    off += 4;
    if (code == 0) break;  // opt_endofopt
    if (off + len > body.size()) break;
    if (code == 9 && len >= 1) {
      const std::uint8_t resol = body[off];
      if (resol & 0x80) {
        ticks = 1ULL << (resol & 0x7f);
      } else {
        ticks = 1;
        for (int i = 0; i < (resol & 0x7f) && ticks < 1'000'000'000'000ULL;
             ++i) {
          ticks *= 10;
        }
      }
    }
    off += (len + 3u) & ~3u;  // options pad to 32 bits
  }
  if_ticks_per_sec_.push_back(ticks);
}

bool PcapngReader::next_into(PacketRecord& out) {
  std::vector<std::uint8_t>& body = block_;
  std::uint32_t type = 0;
  while (read_block(body, type)) {
    if (type == kPcapngShb) {
      parse_section_header(body);
      continue;
    }
    if (type == kPcapngIdb) {
      parse_interface_block(body);
      continue;
    }
    if (type == kPcapngEpb) {
      if (body.size() < 20) throw PcapError("pcapng: short packet block");
      const std::uint32_t interface_id = get_u32(body, 0, swap_);
      const std::uint64_t ts =
          (static_cast<std::uint64_t>(get_u32(body, 4, swap_)) << 32) |
          get_u32(body, 8, swap_);
      const std::uint32_t incl_len = get_u32(body, 12, swap_);
      if (20 + incl_len > body.size()) {
        throw PcapError("pcapng: packet larger than block");
      }
      const std::uint64_t ticks =
          interface_id < if_ticks_per_sec_.size()
              ? if_ticks_per_sec_[interface_id]
              : 1'000'000;
      if (ticks == 0) {  // non-Ethernet interface
        ++blocks_skipped_;
        continue;
      }
      const std::int64_t usec = static_cast<std::int64_t>(
          static_cast<double>(ts) * 1e6 / static_cast<double>(ticks));
      if (!decode_frame_into(
              std::span<const std::uint8_t>{body.data() + 20, incl_len},
              SimTime::from_usec(usec), out)) {
        ++blocks_skipped_;
        continue;
      }
      ++packets_read_;
      return true;
    }
    if (type == kPcapngSpb) {
      if (body.size() < 4) throw PcapError("pcapng: short simple block");
      const std::uint32_t orig_len = get_u32(body, 0, swap_);
      const std::uint32_t incl_len = std::min<std::uint32_t>(
          orig_len, static_cast<std::uint32_t>(body.size() - 4));
      // SPBs carry no timestamp; they land at the trace origin.
      if (!decode_frame_into(
              std::span<const std::uint8_t>{body.data() + 4, incl_len},
              SimTime::origin(), out)) {
        ++blocks_skipped_;
        continue;
      }
      ++packets_read_;
      return true;
    }
    ++blocks_skipped_;
  }
  return false;
}

std::optional<PacketRecord> PcapngReader::next() {
  PacketRecord pkt;
  if (!next_into(pkt)) return std::nullopt;
  return std::optional<PacketRecord>{std::move(pkt)};
}

Trace PcapngReader::read_all() {
  Trace out;
  while (auto pkt = next()) out.push_back(std::move(*pkt));
  return out;
}

}  // namespace upbound

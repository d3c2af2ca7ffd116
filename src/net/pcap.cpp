#include "net/pcap.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/byte_io.h"

namespace upbound {

namespace {

void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u16le(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint32_t get_u32(const std::uint8_t* p, bool swap) {
  std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                    (static_cast<std::uint32_t>(p[1]) << 8) |
                    (static_cast<std::uint32_t>(p[2]) << 16) |
                    (static_cast<std::uint32_t>(p[3]) << 24);
  return swap ? bswap32(v) : v;
}

}  // namespace

StoredFrame encode_stored_frame(
    const PacketRecord& pkt, std::uint32_t snaplen,
    std::span<std::uint8_t, kMaxFrameHeaderSize> headers) {
  const auto header_len =
      static_cast<std::uint32_t>(encode_frame_headers(pkt, headers));
  const std::span<const std::uint8_t> prefix = pkt.captured_payload();
  StoredFrame out;
  out.orig_len = header_len + pkt.payload_size;
  out.incl_len = std::min(
      header_len + static_cast<std::uint32_t>(prefix.size()), snaplen);
  out.header_bytes = std::min(out.incl_len, header_len);
  out.prefix = prefix.first(out.incl_len - out.header_bytes);
  return out;
}

PcapWriter::PcapWriter(const std::string& path, std::uint32_t snaplen)
    : snaplen_(snaplen) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) throw PcapError("cannot open for writing: " + path);

  std::uint8_t hdr[24];
  put_u32le(hdr + 0, kPcapMagicUsecLe);
  put_u16le(hdr + 4, 2);   // version major
  put_u16le(hdr + 6, 4);   // version minor
  put_u32le(hdr + 8, 0);   // thiszone
  put_u32le(hdr + 12, 0);  // sigfigs
  put_u32le(hdr + 16, snaplen_);
  put_u32le(hdr + 20, kPcapLinkTypeEthernet);
  if (std::fwrite(hdr, 1, sizeof(hdr), file_) != sizeof(hdr)) {
    throw PcapError("short write on pcap header");
  }
}

PcapWriter::~PcapWriter() { close(); }

void PcapWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void PcapWriter::write(const PacketRecord& pkt) {
  if (file_ == nullptr) throw PcapError("write after close");

  // One buffer holds the record header and the frame headers, so a record
  // is two fwrites: this buffer, then the captured payload prefix.
  std::array<std::uint8_t, 16 + kMaxFrameHeaderSize> head;
  const StoredFrame frame = encode_stored_frame(
      pkt, snaplen_,
      std::span<std::uint8_t, kMaxFrameHeaderSize>{head.data() + 16,
                                                   kMaxFrameHeaderSize});
  const std::int64_t usec = pkt.timestamp.usec();
  put_u32le(head.data() + 0, static_cast<std::uint32_t>(usec / 1'000'000));
  put_u32le(head.data() + 4, static_cast<std::uint32_t>(usec % 1'000'000));
  put_u32le(head.data() + 8, frame.incl_len);
  put_u32le(head.data() + 12, frame.orig_len);
  const std::size_t head_len = 16 + frame.header_bytes;
  if (std::fwrite(head.data(), 1, head_len, file_) != head_len ||
      (!frame.prefix.empty() &&
       std::fwrite(frame.prefix.data(), 1, frame.prefix.size(), file_) !=
           frame.prefix.size())) {
    throw PcapError("short write on pcap record");
  }
  ++packets_written_;
}

void PcapWriter::write_all(const Trace& trace) {
  for (const auto& pkt : trace) write(pkt);
}

PcapReader::PcapReader(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) throw PcapError("cannot open for reading: " + path);

  std::uint8_t hdr[24];
  if (std::fread(hdr, 1, sizeof(hdr), file_) != sizeof(hdr)) {
    throw PcapError("truncated pcap global header");
  }
  const std::uint32_t magic = get_u32(hdr, false);
  if (magic == kPcapMagicUsecLe) {
    swap_ = false;
    nanosecond_ = false;
  } else if (magic == bswap32(kPcapMagicUsecLe)) {
    swap_ = true;
    nanosecond_ = false;
  } else if (magic == kPcapMagicNsecLe) {
    swap_ = false;
    nanosecond_ = true;
  } else if (magic == bswap32(kPcapMagicNsecLe)) {
    swap_ = true;
    nanosecond_ = true;
  } else {
    throw PcapError("bad pcap magic");
  }
  const std::uint32_t link_type = get_u32(hdr + 20, swap_);
  if (link_type != kPcapLinkTypeEthernet) {
    throw PcapError("unsupported pcap link type " + std::to_string(link_type));
  }
}

PcapReader::~PcapReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool PcapReader::fill(std::size_t n) {
  if (end_ - pos_ >= n) return true;
  // Slide the unread tail to the front, growing the window for records
  // larger than it, then read until `n` bytes are buffered or EOF.
  const std::size_t unread = end_ - pos_;
  if (n > buf_size_) {
    const std::size_t size = std::max(n, std::max<std::size_t>(2 * buf_size_,
                                                               64 * 1024));
    std::unique_ptr<std::uint8_t[]> grown{new std::uint8_t[size]};
    if (unread > 0) std::memcpy(grown.get(), buf_.get() + pos_, unread);
    buf_ = std::move(grown);
    buf_size_ = size;
  } else if (unread > 0) {
    std::memmove(buf_.get(), buf_.get() + pos_, unread);
  }
  pos_ = 0;
  end_ = unread;
  while (end_ < n) {
    const std::size_t got =
        std::fread(buf_.get() + end_, 1, buf_size_ - end_, file_);
    if (got == 0) return false;
    end_ += got;
  }
  return true;
}

bool PcapReader::next_into(PacketRecord& out) {
  for (;;) {
    if (!fill(16)) {
      if (end_ == pos_) return false;  // clean EOF
      throw PcapError("truncated pcap record header");
    }
    const std::uint8_t* rec = buf_.get() + pos_;
    const std::uint32_t ts_sec = get_u32(rec + 0, swap_);
    const std::uint32_t ts_frac = get_u32(rec + 4, swap_);
    const std::uint32_t incl_len = get_u32(rec + 8, swap_);
    if (incl_len > 256 * 1024 * 1024) throw PcapError("absurd record length");
    if (!fill(16 + std::size_t{incl_len})) {
      throw PcapError("truncated pcap record body");
    }
    const std::span<const std::uint8_t> frame{buf_.get() + pos_ + 16,
                                              incl_len};
    pos_ += 16 + std::size_t{incl_len};

    // orig_len is not read: payload_size is recovered from the IP header.
    const std::int64_t usec =
        static_cast<std::int64_t>(ts_sec) * 1'000'000 +
        (nanosecond_ ? ts_frac / 1000 : ts_frac);
    if (!decode_frame_into(frame, SimTime::from_usec(usec), out)) {
      ++frames_skipped_;
      continue;
    }
    ++packets_read_;
    return true;
  }
}

std::optional<PacketRecord> PcapReader::next() {
  PacketRecord pkt;
  if (!next_into(pkt)) return std::nullopt;
  return std::optional<PacketRecord>{std::move(pkt)};
}

Trace PcapReader::read_all() {
  Trace out;
  while (auto pkt = next()) out.push_back(std::move(*pkt));
  return out;
}

}  // namespace upbound

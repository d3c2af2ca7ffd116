#include "net/capture_reader.h"

#include <cstdio>

namespace upbound {

CaptureReader::CaptureReader(const std::string& path) {
  std::uint8_t magic[4] = {0, 0, 0, 0};
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw PcapError("cannot open for reading: " + path);
    const std::size_t got = std::fread(magic, 1, sizeof(magic), f);
    std::fclose(f);
    if (got != sizeof(magic)) throw PcapError("capture too short: " + path);
  }
  const std::uint32_t value = static_cast<std::uint32_t>(magic[0]) |
                              (static_cast<std::uint32_t>(magic[1]) << 8) |
                              (static_cast<std::uint32_t>(magic[2]) << 16) |
                              (static_cast<std::uint32_t>(magic[3]) << 24);
  if (value == kPcapngShb) {
    pcapng_.emplace(path);
  } else {
    pcap_.emplace(path);
  }
}

bool CaptureReader::next_into(PacketRecord& out) {
  return pcapng_ ? pcapng_->next_into(out) : pcap_->next_into(out);
}

std::size_t CaptureReader::read_batch(std::span<PacketRecord> out) {
  std::size_t n = 0;
  while (n < out.size() && next_into(out[n])) ++n;
  return n;
}

Trace CaptureReader::read_all() {
  Trace out;
  for (;;) {
    out.emplace_back();
    if (!next_into(out.back())) break;
  }
  out.pop_back();
  return out;
}

std::uint64_t CaptureReader::skipped() const {
  return pcapng_ ? pcapng_->blocks_skipped() : pcap_->frames_skipped();
}

}  // namespace upbound

// One reader for both on-disk capture formats. The magic number picks
// classic pcap or pcapng; packets then stream out one at a time or a
// batch at a time into caller-owned records, so a replay can run over a
// capture of any length in memory bounded by its batch.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "net/packet.h"
#include "net/pcap.h"
#include "net/pcapng.h"

namespace upbound {

class CaptureReader {
 public:
  /// Opens `path` as pcapng when it starts with a Section Header Block
  /// and as classic pcap otherwise. Throws PcapError when the file cannot
  /// be opened, is shorter than a magic number, or has a bad header.
  explicit CaptureReader(const std::string& path);

  /// Decodes the next packet into `out`, reusing its payload capacity;
  /// false at end of capture.
  bool next_into(PacketRecord& out);

  /// Decodes the next packets into out[0..n), reusing each record's
  /// payload capacity, and returns n. n < out.size() only at end of
  /// capture, so successive batches cut the capture exactly where slicing
  /// read_all() into out.size()-packet batches would.
  std::size_t read_batch(std::span<PacketRecord> out);

  /// Reads the remaining packets.
  Trace read_all();

  /// Frames (pcap) or blocks (pcapng) skipped as undecodable so far.
  std::uint64_t skipped() const;

 private:
  std::optional<PcapReader> pcap_;
  std::optional<PcapngReader> pcapng_;
};

}  // namespace upbound

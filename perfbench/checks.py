"""Correctness checks for the upbound benchmark.

None of these checks uses the program as its own oracle: captures are
parsed here, by this module's own pcap reader, and every expectation is
derived from the input packets and the paper's guarantees:

* conservation: per verdict, packets and bytes sum to the input's totals,
  and the survivor capture holds exactly the passed packets;
* no false negatives: an inbound packet whose socket pair passed outbound
  within the guaranteed window (k-1)*dt is never dropped, unless an earlier
  drop of the same pair put it on the blocklist;
* Eq. 1: no policy drop is decided while the uplink, as recomputed here
  from the passed upload, is at or below L;
* the Bloom bound: state hits on unsolicited inbound packets stay within
  the false-positive bound (1 - e^(-m*n/N))^m;
* live equals offline: the live tap's verdict totals equal the offline run.

Every check returns a list of error strings; an empty list is a pass.
test_checks.py feeds each check a corrupted result and shows it fails.
"""

import math
import struct
import zlib
from array import array

OUTBOUND, INBOUND, IGNORED = 0, 1, 2

_PCAP_HEADER = struct.Struct("<IHHiIII")
_RECORD = struct.Struct("<IIII")
_IPV4 = struct.Struct("!BBHHHBBHII")
_PORTS = struct.Struct("!HH")
_PCAP_MAGIC_USEC = 0xA1B2C3D4


class Capture:
    """Packets of a capture as parallel arrays.

    key is the socket pair written client side first, so an outbound
    packet and the inbound packets answering it share one key.
    """

    def __init__(self):
        self.ts = array("q")      # microseconds
        self.dirs = bytearray()   # OUTBOUND / INBOUND / IGNORED
        self.keys = []            # int: proto|client ip|port|remote ip|port
        self.sizes = array("I")   # wire bytes: Ethernet + IP total length
        self.crcs = array("I")    # CRC-32 of the captured frame

    def __len__(self):
        return len(self.ts)

    def append(self, ts, direction, key, size, crc=0):
        self.ts.append(ts)
        self.dirs.append(direction)
        self.keys.append(key)
        self.sizes.append(size)
        self.crcs.append(crc)

    def totals(self):
        """(packets, bytes) per direction, in the order OUT, IN, IGNORED."""
        pkts = [0, 0, 0]
        byts = [0, 0, 0]
        for d, s in zip(self.dirs, self.sizes):
            pkts[d] += 1
            byts[d] += s
        return pkts, byts


def pair_key(proto, client_ip, client_port, remote_ip, remote_port):
    return ((proto << 96) | (client_ip << 64) | (client_port << 48)
            | (remote_ip << 16) | remote_port)


def parse_cidr(text):
    base, length = text.split("/")
    a, b, c, d = (int(x) for x in base.split("."))
    mask = (0xFFFFFFFF << (32 - int(length))) & 0xFFFFFFFF
    return ((a << 24) | (b << 16) | (c << 8) | d) & mask, mask


def read_pcap(path, network):
    """Parses an Ethernet/IPv4 pcap written with microsecond stamps."""
    net, mask = network
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < _PCAP_HEADER.size:
        raise ValueError("%s: truncated pcap header" % path)
    magic = _PCAP_HEADER.unpack_from(buf, 0)[0]
    if magic != _PCAP_MAGIC_USEC:
        raise ValueError("%s: unexpected pcap magic %#x" % (path, magic))
    cap = Capture()
    rec_unpack = _RECORD.unpack_from
    ip_unpack = _IPV4.unpack_from
    ports_unpack = _PORTS.unpack_from
    crc32 = zlib.crc32
    append = cap.append
    off = _PCAP_HEADER.size
    end = len(buf)
    while off < end:
        if off + 16 > end:
            raise ValueError("%s: truncated record header" % path)
        sec, usec, incl, _orig = rec_unpack(buf, off)
        body = off + 16
        off = body + incl
        if off > end:
            raise ValueError("%s: truncated record body" % path)
        if incl < 34 or buf[body + 12] != 0x08 or buf[body + 13] != 0x00:
            raise ValueError("%s: non-IPv4 frame" % path)
        (vihl, _tos, total_len, _id, _frag, _ttl, proto, _csum, src,
         dst) = ip_unpack(buf, body + 14)
        l4 = body + 14 + (vihl & 0x0F) * 4
        sport, dport = ports_unpack(buf, l4)
        ts = sec * 1000000 + usec
        size = 14 + total_len
        crc = crc32(buf[body:off])
        if src & mask == net:
            append(ts, OUTBOUND, pair_key(proto, src, sport, dst, dport),
                   size, crc)
        elif dst & mask == net:
            append(ts, INBOUND, pair_key(proto, dst, dport, src, sport),
                   size, crc)
        else:
            append(ts, IGNORED, pair_key(proto, src, sport, dst, dport),
                   size, crc)
    return cap


def write_empty_pcap(path):
    with open(path, "wb") as f:
        f.write(_PCAP_HEADER.pack(_PCAP_MAGIC_USEC, 2, 4, 0, 0, 65535, 1))


# ---------------------------------------------------------------------------
# Verdict totals as `upbound filter` reports them.

REPORT_FIELDS = (
    "outbound_packets", "outbound_bytes", "inbound_passed_packets",
    "inbound_passed_bytes", "inbound_dropped_packets", "blocked_drops",
    "suppressed_outbound_packets", "suppressed_outbound_bytes",
    "ignored_packets")


def parse_filter_report(text):
    """Verdict totals and stage counters from `upbound filter` output."""
    report = {}
    counters = {}
    in_counters = False
    for line in text.splitlines():
        words = line.replace(",", " ").split()
        if line.startswith("outbound passed:"):
            report["outbound_packets"] = int(words[2])
            report["outbound_bytes"] = int(words[4])
        elif line.startswith("inbound passed:"):
            report["inbound_passed_packets"] = int(words[2])
            report["inbound_passed_bytes"] = int(words[4])
        elif line.startswith("inbound dropped:"):
            report["inbound_dropped_packets"] = int(words[2])
            report["blocked_drops"] = int(words[words.index("via") - 1])
        elif line.startswith("upload suppressed:"):
            report["suppressed_outbound_packets"] = int(words[2])
            report["suppressed_outbound_bytes"] = int(words[4])
        elif line.startswith("datapath stage counters:"):
            in_counters = True
        elif in_counters and line.startswith("  ") and len(words) == 2:
            counters[words[0]] = int(words[1])
        else:
            in_counters = False
    report["ignored_packets"] = counters.get("classify.ignored_packets", -1)
    missing = [f for f in REPORT_FIELDS if f not in report]
    if missing:
        raise ValueError("filter report lacks %s" % ", ".join(missing))
    return report, counters


def decided_packets(report):
    return (report["outbound_packets"] + report["suppressed_outbound_packets"]
            + report["inbound_passed_packets"]
            + report["inbound_dropped_packets"] + report["ignored_packets"])


# ---------------------------------------------------------------------------
# Checks.

def check_conservation(cap, report):
    """Per verdict, packets and bytes sum to the input's totals."""
    pkts, byts = cap.totals()
    errors = []

    def expect(name, got, want):
        if got != want:
            errors.append("conservation: %s = %d, input has %d"
                          % (name, got, want))

    expect("outbound passed + suppressed packets",
           report["outbound_packets"] + report["suppressed_outbound_packets"],
           pkts[OUTBOUND])
    expect("outbound passed + suppressed bytes",
           report["outbound_bytes"] + report["suppressed_outbound_bytes"],
           byts[OUTBOUND])
    expect("inbound passed + dropped packets",
           report["inbound_passed_packets"]
           + report["inbound_dropped_packets"], pkts[INBOUND])
    expect("ignored packets", report["ignored_packets"], pkts[IGNORED])
    if report["inbound_passed_bytes"] > byts[INBOUND]:
        errors.append("conservation: inbound passed bytes %d exceed the "
                      "input's %d" % (report["inbound_passed_bytes"],
                                      byts[INBOUND]))
    return errors


def match_survivors(cap, survivors):
    """Aligns the survivor capture with the input, in order.

    Returns (passed, errors): passed[i] is 1 when input packet i is in the
    survivor capture.
    """
    passed = bytearray(len(cap))
    j = 0
    m = len(survivors)
    s_ts, s_keys, s_sizes, s_crcs = (survivors.ts, survivors.keys,
                                     survivors.sizes, survivors.crcs)
    for i in range(len(cap)):
        if j < m and (cap.ts[i] == s_ts[j] and cap.crcs[i] == s_crcs[j]
                      and cap.keys[i] == s_keys[j]
                      and cap.sizes[i] == s_sizes[j]):
            passed[i] = 1
            j += 1
    if j != m:
        return passed, ["survivors: %d of %d survivor packets are not an "
                        "in-order subset of the input" % (m - j, m)]
    return passed, []


def check_survivors(cap, passed, report):
    """The survivor capture holds exactly the passed packets."""
    out_pkts = in_pkts = out_bytes = in_bytes = 0
    for d, s, p in zip(cap.dirs, cap.sizes, passed):
        if not p:
            continue
        if d == OUTBOUND:
            out_pkts += 1
            out_bytes += s
        elif d == INBOUND:
            in_pkts += 1
            in_bytes += s
        else:
            return ["survivors: an ignored packet was forwarded"]
    errors = []
    for name, got, want in (
            ("outbound packets", out_pkts, report["outbound_packets"]),
            ("outbound bytes", out_bytes, report["outbound_bytes"]),
            ("inbound packets", in_pkts, report["inbound_passed_packets"]),
            ("inbound bytes", in_bytes, report["inbound_passed_bytes"])):
        if got != want:
            errors.append("survivors: %s %d, report says %d passed"
                          % (name, got, want))
    return errors


def check_no_false_negatives(cap, passed, window_us):
    """No inbound drop of a pair that passed outbound within window_us.

    A pair is exempt once one of its inbound packets has been dropped:
    from then on the blocklist, not the state filter, decides it.
    """
    last_out = {}
    dropped_pairs = set()
    errors = []
    for ts, d, key, p in zip(cap.ts, cap.dirs, cap.keys, passed):
        if d == OUTBOUND:
            if p:
                last_out[key] = ts
        elif d == INBOUND and not p:
            if key not in dropped_pairs:
                t_out = last_out.get(key)
                if t_out is not None and ts - t_out < window_us:
                    if len(errors) < 5:
                        errors.append(
                            "false negative: inbound at %d us dropped %d us "
                            "after its pair passed outbound" % (ts, ts - t_out))
                    else:
                        errors[-1] = "false negative: more than 5 drops"
            dropped_pairs.add(key)
    return errors


def policy_drop_indices(cap, passed):
    """Inbound drops that the policy decided: the first drop of each pair.

    Later drops of the pair are blocklist drops (its entries live for the
    blocklist TTL, longer than any benchmark capture).
    """
    dropped_pairs = set()
    out = []
    for i, (d, key, p) in enumerate(zip(cap.dirs, cap.keys, passed)):
        if d == INBOUND and not p and key not in dropped_pairs:
            dropped_pairs.add(key)
            out.append(i)
    return out


def check_eq1(cap, passed, report, low_bps, meter_window_us):
    """No policy drop while the recomputed uplink is at or below L.

    The router's meter averages passed upload over slots covering at most
    the last meter_window_us, so the bytes passed in the closed interval
    [t - window, t] bound its reading from above: if even that sum gives an
    uplink <= L, Eq. 1 gives P_d = 0 and a drop is an error.
    """
    drops = policy_drop_indices(cap, passed)
    errors = []
    want = report["inbound_dropped_packets"] - report["blocked_drops"]
    if len(drops) != want:
        errors.append("eq1: %d policy drops in the survivors, report says %d"
                      % (len(drops), want))
    window_s = meter_window_us / 1e6
    ts, dirs, sizes = cap.ts, cap.dirs, cap.sizes
    head = 0        # oldest passed-outbound index still inside the window
    window_bytes = 0
    next_out = 0    # next input index to consider for the window
    outs = []
    for i in drops:
        t = ts[i]
        while next_out < i:
            if dirs[next_out] == OUTBOUND and passed[next_out]:
                outs.append(next_out)
                window_bytes += sizes[next_out]
            next_out += 1
        while head < len(outs) and ts[outs[head]] < t - meter_window_us:
            window_bytes -= sizes[outs[head]]
            head += 1
        uplink = window_bytes * 8 / window_s
        if uplink <= low_bps and len(errors) < 5:
            errors.append("eq1: policy drop at %d us with uplink %.0f b/s "
                          "<= L = %.0f" % (t, uplink, low_bps))
    return errors


def check_no_policy_drops(report, counters):
    """Below L everywhere: no inbound drop and an empty blocklist."""
    errors = []
    if report["inbound_dropped_packets"] != 0:
        errors.append("eq1: %d inbound drops although the uplink stays "
                      "below L" % report["inbound_dropped_packets"])
    for name in ("blocklist.inserts", "blocklist.hits", "policy.drops"):
        if counters.get(name, -1) != 0:
            errors.append("eq1: %s = %s, expected 0"
                          % (name, counters.get(name)))
    return errors


def state_classes(cap, passed, k, dt_us):
    """Splits unblocked inbound packets by the age of their pair's mark.

    Returns (guaranteed, maybe, unsolicited, n): guaranteed packets' pair
    passed outbound less than (k-1)*dt ago, so the filter must admit them;
    maybe packets' mark is younger than (k+1)*dt and may survive; the rest
    are unsolicited and pass the state stage only by a false positive. n
    bounds the distinct pairs the filter can hold at once: the most
    distinct outbound pairs in any k+1 consecutive dt buckets.
    """
    sure = (k - 1) * dt_us
    loose = (k + 1) * dt_us
    last_out = {}
    buckets = {}
    guaranteed = maybe = unsolicited = 0
    for ts, d, key, p in zip(cap.ts, cap.dirs, cap.keys, passed):
        if d == OUTBOUND:
            if p:
                last_out[key] = ts
                buckets.setdefault(ts // dt_us, set()).add(key)
        elif d == INBOUND:
            t_out = last_out.get(key)
            if t_out is not None and ts - t_out < sure:
                guaranteed += 1
            elif t_out is not None and ts - t_out < loose:
                maybe += 1
            else:
                unsolicited += 1
    n = 0
    if buckets:
        first, last = min(buckets), max(buckets)
        for start in range(first, last + 1):
            union = set()
            for b in range(start, start + k + 1):
                union |= buckets.get(b, set())
            n = max(n, len(union))
    return guaranteed, maybe, unsolicited, n


def bloom_fp_bound(m, n, bits):
    return (1.0 - math.exp(-m * n / float(1 << bits))) ** m


def check_bloom_bound(cap, passed, counters, k, dt_us, m, bits):
    """State hits lie between the guaranteed admits and the FP bound.

    Returns (errors, info). Hits on unsolicited packets may not exceed
    U*p plus four binomial standard deviations.
    """
    guaranteed, maybe, unsolicited, n = state_classes(cap, passed, k, dt_us)
    hits = counters.get("state.hits", -1)
    p = bloom_fp_bound(m, n, bits)
    mean = unsolicited * p
    allowed = mean + 4.0 * math.sqrt(mean * (1.0 - p))
    fp_hits = hits - guaranteed - maybe
    info = {"guaranteed": guaranteed, "maybe": maybe,
            "unsolicited": unsolicited, "pairs": n, "fp_bound": p,
            "hits": hits}
    errors = []
    if hits < guaranteed:
        errors.append("bloom: %d state hits, but %d inbound packets had a "
                      "mark inside the guaranteed window" % (hits, guaranteed))
    if fp_hits > allowed:
        errors.append("bloom: at least %d unsolicited admits, bound allows "
                      "%.3f (p = %.3g over %d packets)"
                      % (fp_hits, allowed, p, unsolicited))
    return errors, info


def check_live_equals_offline(live, offline):
    errors = []
    for field in REPORT_FIELDS:
        if live.get(field) != offline.get(field):
            errors.append("live != offline: %s %s vs %s"
                          % (field, live.get(field), offline.get(field)))
    return errors

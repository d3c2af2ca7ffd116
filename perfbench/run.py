#!/usr/bin/env python3
"""End-to-end benchmark of the upbound datapath.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload campus|churn|live_tap --seed N \
        --seconds S --trace 0|1

Builds the `upbound` CLI and perfbench_harness in Release under
.bench_build/ (or $CARGO_TARGET_DIR), makes the workload's capture from
--seed with src/trace, and measures for --seconds seconds.

--trace 0 measures what a user sees, with no tracing:
  mpps         packets decided per second of wall time: the median over
               passes of `upbound filter --pcap ... --blocklist --out ...`
               (campus, churn) or of the live tap datapath (live_tap);
  peak_rss_mb  the largest peak resident set of the measured processes;
  setup_s      one cold invocation on a capture that holds no packets.
Then it checks the program's outputs (see checks.py).

--trace 1 runs `perfbench_harness layers`: the router once, then each
layer's public functions driven standalone with the call sequence the
router's verdicts imply, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the benchmark's directory clean
import checks  # noqa: E402

NETWORK = "140.112.30.0/24"
# The router's Eq. 1 coin seed: the CLI default, as a user runs it.
ROUTER_SEED = 7
# The router's uplink meter window (EdgeRouterConfig::meter_window).
METER_WINDOW_US = 1000000
MIN_PASSES = 3

CAMPUS = {
    # Table 2 mix at the paper's ~250 conn/s and 146.7 Mbps.
    "mix": "paper", "duration": 30, "rate": 250, "bandwidth": 146.7e6,
    # Paper geometry {4 x 2^20}, m = 3, dt = 5 s; L/H below the offered
    # uplink, so P_d reaches 1 and the blocklist fills.
    "filter": "bitmap-blocked", "bits": 20, "k": 4, "m": 3, "dt": 5,
    "low": 20e6, "high": 40e6,
}
WORKLOADS = {
    "campus": dict(CAMPUS, live=False, policy_idle=False),
    # Client-initiated (enterprise mix) at 30x the paper's connection
    # rate on a saturation-provisioned {4 x 2^24}, m = 10 filter. L/H sit
    # above the offered uplink: P_d = 0 and the blocklist stays empty.
    "churn": {
        "mix": "enterprise", "duration": 10, "rate": 7500,
        "bandwidth": 146.7e6, "filter": "bitmap-blocked", "bits": 24,
        "k": 4, "m": 10, "dt": 5, "low": 1e9, "high": 2e9, "live": False,
        "policy_idle": True,
    },
    # The campus packets and router over the loopback UDP tap.
    "live_tap": dict(CAMPUS, live=True, policy_idle=False),
}



def load_metrics(root):
    """(unit of every metric, per-layer names) from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    return units, [m["name"] for m in bench["per_layer"]]


def log(msg):
    print(msg, flush=True)


def fail_setup(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build(root, build_dir):
    """Configures once and builds the two binaries; returns their paths."""
    for needed in ("src/CMakeLists.txt", "examples/upbound.cpp"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail_setup("%s not found: run from the root of an upbound "
                       "checkout" % needed)
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", "4", "--target",
                  "upbound_tool", "perfbench_harness"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail_setup("build failed: %s" % " ".join(cmd))
    return (os.path.join(cmake_dir, "upbound"),
            os.path.join(cmake_dir, "perfbench_harness"))


def run_measured(cmd, out_path):
    """Runs cmd to completion with stdout in out_path.

    Returns (exit code, wall seconds, peak RSS in MB).
    """
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err = proc.stderr.read()
        proc.stderr.close()
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def router_flags(w):
    return ["--network", NETWORK, "--filter", w["filter"],
            "--bits", str(w["bits"]), "--k", str(w["k"]),
            "--m", str(w["m"]), "--dt", str(w["dt"]),
            "--low", repr(w["low"]), "--high", repr(w["high"]),
            "--seed", str(ROUTER_SEED)]


def cli_filter_cmd(upbound, w, pcap, out):
    return ([upbound, "filter", "--pcap", pcap, "--blocklist", "--out", out]
            + router_flags(w))


def make_input(harness, w, seed, work):
    """Generates the capture; returns its path and the generator's totals."""
    pcap = os.path.join(work, "input.pcap")
    proc = subprocess.run(
        [harness, "gen", "--mix", w["mix"], "--duration", str(w["duration"]),
         "--rate", str(w["rate"]), "--bandwidth", repr(w["bandwidth"]),
         "--seed", str(seed), "--out", pcap],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("input generation failed")
    generated = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = hashlib.sha256()
    with open(pcap, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    log("input: %d packets, %d bytes, %d connections, sha256 %s"
        % (generated["packets"], generated["bytes"],
           generated["connections"], digest.hexdigest()[:16]))
    return pcap, generated


def load_input(pcap, generated):
    """Parses the capture with checks.read_pcap and recounts it.

    Called only after the measured processes have exited: a child forked
    from this process starts with its resident set, which would leak the
    parsed capture into the children's ru_maxrss.
    """
    cap = checks.read_pcap(pcap, checks.parse_cidr(NETWORK))
    pkts, byts = cap.totals()
    if sum(pkts) != generated["packets"] or sum(byts) != generated["bytes"]:
        return cap, ["input: parsed %d packets / %d bytes, generator wrote "
                     "%d / %d" % (sum(pkts), sum(byts), generated["packets"],
                                  generated["bytes"])]
    return cap, []


def offline_checks(w, cap, report, counters, survivors_path):
    survivors = checks.read_pcap(survivors_path, checks.parse_cidr(NETWORK))
    passed, errors = checks.match_survivors(cap, survivors)
    errors += checks.check_conservation(cap, report)
    errors += checks.check_survivors(cap, passed, report)
    dt_us = int(w["dt"] * 1e6)
    errors += checks.check_no_false_negatives(cap, passed,
                                              (w["k"] - 1) * dt_us)
    if w["policy_idle"]:
        errors += checks.check_no_policy_drops(report, counters)
        bloom_errors, info = checks.check_bloom_bound(
            cap, passed, counters, w["k"], dt_us, w["m"], w["bits"])
        errors += bloom_errors
        log("bloom: %s" % json.dumps(info))
    else:
        errors += checks.check_eq1(cap, passed, report, w["low"],
                                   METER_WINDOW_US)
    return errors


def measure_offline(w, upbound, pcap, generated, work, seconds):
    empty = os.path.join(work, "empty.pcap")
    checks.write_empty_pcap(empty)
    rc, setup_s, _ = run_measured(
        cli_filter_cmd(upbound, w, empty, os.path.join(work, "empty.out")),
        os.path.join(work, "empty.txt"))
    errors = [] if rc == 0 else ["setup run exited with %d" % rc]

    survivors = os.path.join(work, "survivors.pcap")
    report_path = os.path.join(work, "report.txt")
    packets = generated["packets"]
    rates, rss = [], []
    first_report = None
    attempted = failed = 0
    t0 = time.perf_counter()
    while len(rates) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        rc, wall, peak = run_measured(
            cli_filter_cmd(upbound, w, pcap, survivors), report_path)
        attempted += packets
        if rc != 0:
            failed += packets
            errors.append("filter pass exited with %d" % rc)
            break
        with open(report_path) as f:
            text = f.read()
        if first_report is None:
            first_report = text
        elif text != first_report:
            errors.append("filter report differs between passes")
        report, _ = checks.parse_filter_report(text)
        failed += max(0, packets - checks.decided_packets(report))
        rates.append(packets / wall / 1e6)
        rss.append(peak)
    if first_report is None:
        return errors, attempted, failed, None
    report, counters = checks.parse_filter_report(first_report)
    cap, input_errors = load_input(pcap, generated)
    errors += input_errors
    errors += offline_checks(w, cap, report, counters, survivors)
    log("passes: %d, mpps min/median/max %.4f/%.4f/%.4f"
        % (len(rates), min(rates), statistics.median(rates), max(rates)))
    metrics = {"mpps": statistics.median(rates), "peak_rss_mb": max(rss),
               "setup_s": setup_s}
    return errors, attempted, failed, metrics


def measure_live(w, upbound, harness, pcap, generated, work, seconds):
    empty = os.path.join(work, "empty.pcap")
    checks.write_empty_pcap(empty)
    base = [harness, "live"] + router_flags(w)
    rc, setup_s, _ = run_measured(
        base + ["--pcap", empty, "--seconds", "0"],
        os.path.join(work, "empty.txt"))
    errors = [] if rc == 0 else ["setup run exited with %d" % rc]

    out_path = os.path.join(work, "live.txt")
    rc, _, peak = run_measured(
        base + ["--pcap", pcap, "--seconds", str(seconds)], out_path)
    with open(out_path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    passes = [l for l in lines if "pass" in l]
    final = [l for l in lines if l.get("final")]
    packets = generated["packets"]
    attempted = packets * max(1, len(passes))
    if rc != 0 or not final or not passes:
        errors.append("live run exited with %d" % rc)
        return errors, attempted, attempted, None
    final = final[-1]
    failed = sum(packets - p["packets"] for p in passes)
    failed += final["decode_errors"] + final["frames_lost"]
    if final["timed_out"]:
        errors.append("live pass timed out: frames were lost")

    # The offline run of the same packets, for live-equals-offline.
    report_path = os.path.join(work, "report.txt")
    survivors = os.path.join(work, "survivors.pcap")
    rc, _, _ = run_measured(cli_filter_cmd(upbound, w, pcap, survivors),
                            report_path)
    if rc != 0:
        errors.append("offline reference exited with %d" % rc)
    else:
        with open(report_path) as f:
            offline, _ = checks.parse_filter_report(f.read())
        errors += checks.check_live_equals_offline(final, offline)
    cap, input_errors = load_input(pcap, generated)
    errors += input_errors
    errors += checks.check_conservation(cap, final)

    rates = [packets / p["seconds"] / 1e6 for p in passes]
    log("passes: %d, mpps min/median/max %.4f/%.4f/%.4f"
        % (len(rates), min(rates), statistics.median(rates), max(rates)))
    metrics = {"mpps": statistics.median(rates), "peak_rss_mb": peak,
               "setup_s": setup_s}
    return errors, attempted, failed, metrics


def measure_layers(w, harness, pcap, generated, work, seconds, names):
    cmd = [harness, "layers", "--pcap", pcap, "--seconds", str(seconds),
           "--sink", os.path.join(work, "sink.pcap")] + router_flags(w)
    if w["live"]:
        cmd.append("--live")
    out_path = os.path.join(work, "layers.txt")
    rc, _, _ = run_measured(cmd, out_path)
    packets = generated["packets"]
    if rc != 0:
        return ["layers run exited with %d" % rc], packets, packets, None
    with open(out_path) as f:
        result = json.loads(f.read().strip().splitlines()[-1])
    errors = ["layer check %s failed: %s"
              % (name, result["details"].get(name, ""))
              for name, ok in sorted(result["checks"].items()) if not ok]
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            errors.append("layers run lacks %s" % name)
            continue
        metrics[name] = result["metrics"][name]
    if result["packets"] != packets:
        errors.append("layers run read %d packets, generator wrote %d"
                      % (result["packets"], packets))
    log("layer passes: %d" % result["passes"])
    return errors, packets * result["passes"], 0, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    units, per_layer = load_metrics(root)
    upbound, harness = build(root, build_dir)
    w = WORKLOADS[args.workload]
    work = os.path.join(build_dir, "runs", "%s-%d-%d"
                        % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        pcap, generated = make_input(harness, w, args.seed, work)
        if args.trace:
            errors, attempted, failed, metrics = measure_layers(
                w, harness, pcap, generated, work, args.seconds, per_layer)
        elif w["live"]:
            errors, attempted, failed, metrics = measure_live(
                w, upbound, harness, pcap, generated, work, args.seconds)
        else:
            errors, attempted, failed, metrics = measure_offline(
                w, upbound, pcap, generated, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        log("CHECK FAILED: %s" % e)
    if metrics is None:
        sys.exit(1)
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


if __name__ == "__main__":
    main()

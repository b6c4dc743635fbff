#!/usr/bin/env python3
"""Shape checker for hpu::trace Chrome trace-event exports.

Validates that a --trace=<file.json> export is well-formed enough for
Perfetto / chrome://tracing: valid JSON, the expected top-level keys, the
four track-name metadata events, and complete ("X") events whose required
fields are present and whose timestamps are sane. On top of the flat
checks it rebuilds the span tree from each event's args.span_id /
args.parent and verifies containment: every child interval nests inside
its parent's interval, and streamed transfer chunks hang off a phase
span. Used by CI as a smoke gate after running a traced bench; exits
non-zero with a message on the first violation.

On profiled exports it also validates the wall-clock side (the second of
the two clocks, DESIGN.md §11): wall_ns is only ever serialized when >= 1
(wall_ns == 0 is the in-memory "unprofiled" sentinel and must be omitted),
wall_start_ns values are rebased so the earliest annotated span starts at
0, every annotated span's wall interval nests inside its nearest annotated
ancestor's (modulo the 1 ns clamp), and grouping-only spans (phase, wave)
are never annotated. --require-wall turns "no annotated spans at all" into
a failure, for fixtures that ran with --profile.

Every run root must also leave room for the work under it: per unit, the
summed durations of the work spans below a root (level, leaves, hook,
transfer; waves are contained in their level) fit in the root's duration.
Host-track spans count as CPU work, as in trace::derive_utilization. A
unit busy for longer than its run means a span was double-booked, or the
run closed before its work ended.

Critical-path decorations (obs/critpath.hpp, exported through
trace::ChromeExtras) are validated when present: flow events ("s"/"f"
pairs sharing an id, each referencing a real span) must pair up one start
with one finish, and every run root that carries the five crit_*_share
blame args must have them sum to 1 (±1e-6) with a crit_chain count that
matches the number of spans below it carrying a "crit" index. Those
indices must be unique and contiguous 1..N, time-ordered, and inside the
root's interval — the chain a viewer highlights is exactly the chain the
extractor found. Undecorated exports skip all of this.

Usage: tools/check_trace.py <trace.json> [--min-spans N] [--expect-chunks K]
                            [--require-wall]
       tools/check_trace.py --self-test

--self-test runs the checker against built-in fixtures, including an
irregular-tree export (dynamic task lists: uneven level widths, empty
branches, per-level extent_words / imbalance args) — the shape contract is
the same as for regular trees: run → phase → level → wave, every child
nested in its parent — and a critical-path-annotated variant plus the
negative cases (broken chain index, blame shares off 1, dangling flow, a
unit busy for longer than its run).
"""

import argparse
import io
import json
import sys

TRACKS = {"host", "cpu", "gpu", "link"}
KINDS = {"run", "phase", "level", "leaves", "wave", "transfer", "hook"}

# Containment slack for the virtual clock: tick values survive the JSON
# round trip bit-faithfully (the exporter prints max_digits10), but keep a
# small relative tolerance so the check stays robust to any future
# lower-precision writer (a real escape is at least one transfer, λ ticks,
# orders of magnitude above it).
EPS = 2e-5

# Wall containment slack in ns: every annotated span's wall_ns is clamped
# to >= 1 ns, so a child measured as "immeasurably short" can overhang its
# ancestor's measured interval by a few clamps.
WALL_SLACK_NS = 16

# Blame shares (crit_*_share) are written with max_digits10 and sum to 1
# by construction; 1e-6 matches the bottleneck CLI's --check tolerance.
SHARE_EPS = 1e-6


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_nesting(complete):
    """Rebuild the span tree from args.span_id/args.parent and verify that
    every child's [ts, ts+dur] interval nests inside its parent's."""
    by_id = {}
    for ev in complete:
        args = ev.get("args")
        if not isinstance(args, dict):
            fail(f"complete event '{ev['name']}' lacks an args object")
        sid = args.get("span_id")
        if not isinstance(sid, int) or sid == 0:
            fail(f"complete event '{ev['name']}' lacks a valid args.span_id")
        if sid in by_id:
            fail(f"duplicate span_id {sid} ('{ev['name']}')")
        by_id[sid] = ev

    roots = 0
    for ev in complete:
        args = ev["args"]
        parent = args.get("parent")
        if not isinstance(parent, int):
            fail(f"span {args['span_id']} ('{ev['name']}') lacks args.parent")
        if parent == 0:  # kNoSpan sentinel: a root span
            roots += 1
            continue
        if parent not in by_id:
            fail(f"span {args['span_id']} ('{ev['name']}') references "
                 f"unknown parent {parent}")
        pev = by_id[parent]
        lo, hi = ev["ts"], ev["ts"] + ev["dur"]
        plo, phi = pev["ts"], pev["ts"] + pev["dur"]
        tol = EPS * max(abs(hi), abs(phi), 1.0)
        if lo < plo - tol or hi > phi + tol:
            fail(f"span {args['span_id']} ('{ev['name']}') "
                 f"[{lo}, {hi}] escapes parent {parent} ('{pev['name']}') "
                 f"[{plo}, {phi}]")
        if "chunk" in ev["name"] and ev["cat"] == "transfer":
            if pev["cat"] != "phase":
                fail(f"streamed chunk '{ev['name']}' hangs off a "
                     f"'{pev['cat']}' span, expected a phase")
    if roots == 0 and complete:
        fail("no root span (every span has a parent)")
    return by_id


WORK_KINDS = {"level", "leaves", "hook", "transfer"}


def check_busy(complete, by_id, tracks):
    """Per run root and unit, the summed work-span durations fit in the
    root's duration (host-track work occupies the CPU)."""
    def root_of(ev):
        while ev["args"]["parent"] != 0:
            ev = by_id[ev["args"]["parent"]]
        return ev["args"]["span_id"]

    busy = {}  # (root span_id, unit) -> ticks
    for ev in complete:
        if ev["cat"] not in WORK_KINDS:
            continue
        unit = tracks.get(ev["tid"])
        unit = "cpu" if unit == "host" else unit
        key = (root_of(ev), unit)
        busy[key] = busy.get(key, 0.0) + ev["dur"]
    for (root, unit), ticks in sorted(busy.items()):
        dur = by_id[root]["dur"]
        if ticks > dur + EPS * max(abs(dur), 1.0):
            fail(f"{unit} is busy for {ticks} ticks under root {root} "
                 f"('{by_id[root]['name']}'), longer than the run's {dur}")


def check_wall(complete, by_id, require_wall):
    """Validate the wall-clock annotations of a profiled export."""
    annotated = []
    for ev in complete:
        args = ev["args"]
        has_ns = "wall_ns" in args
        has_start = "wall_start_ns" in args
        if has_ns != has_start:
            fail(f"span {args['span_id']} ('{ev['name']}') has a partial wall "
                 f"annotation (wall_ns and wall_start_ns must come together)")
        if not has_ns:
            continue
        if not isinstance(args["wall_ns"], int) or args["wall_ns"] < 1:
            fail(f"span {args['span_id']} ('{ev['name']}') has wall_ns "
                 f"{args['wall_ns']}; 0 is the unprofiled sentinel and must "
                 f"be omitted, measured spans are clamped to >= 1")
        if not isinstance(args["wall_start_ns"], int) or args["wall_start_ns"] < 0:
            fail(f"span {args['span_id']} ('{ev['name']}') has invalid "
                 f"wall_start_ns {args['wall_start_ns']}")
        if ev["cat"] in ("phase", "wave"):
            fail(f"span {args['span_id']} ('{ev['name']}') is a grouping "
                 f"'{ev['cat']}' span but carries a wall annotation")
        annotated.append(ev)

    if not annotated:
        if require_wall:
            fail("no wall-annotated spans (--require-wall expects a "
                 "profiled export)")
        return 0

    if min(ev["args"]["wall_start_ns"] for ev in annotated) != 0:
        fail("wall_start_ns values are not rebased: the earliest annotated "
             "span must start at 0")

    for ev in annotated:
        args = ev["args"]
        # Walk up to the nearest annotated ancestor (grouping spans in
        # between carry no wall fields).
        parent = args["parent"]
        while parent != 0 and "wall_ns" not in by_id[parent]["args"]:
            parent = by_id[parent]["args"]["parent"]
        if parent == 0:
            continue
        pargs = by_id[parent]["args"]
        lo = args["wall_start_ns"]
        hi = lo + args["wall_ns"]
        plo = pargs["wall_start_ns"]
        phi = plo + pargs["wall_ns"]
        if lo < plo - WALL_SLACK_NS or hi > phi + WALL_SLACK_NS:
            fail(f"span {args['span_id']} ('{ev['name']}') wall interval "
                 f"[{lo}, {hi}] ns escapes annotated ancestor {parent} "
                 f"[{plo}, {phi}] ns")
    return len(annotated)


def check_flows(flows, by_id):
    """Flow events come in "s"/"f" pairs sharing a numeric id, and each
    endpoint's args.span_id must name a real span."""
    by_flow_id = {}
    for ev in flows:
        sid = ev.get("args", {}).get("span_id")
        if not isinstance(sid, int) or sid not in by_id:
            fail(f"flow event (id {ev['id']}) references unknown span "
                 f"{sid!r}")
        phases = by_flow_id.setdefault(ev["id"], [])
        if ev["ph"] in phases:
            fail(f"flow id {ev['id']} has more than one '{ev['ph']}' event")
        phases.append(ev["ph"])
    for fid, phases in by_flow_id.items():
        if sorted(phases) != ["f", "s"]:
            fail(f"flow id {fid} is unpaired (has {phases}, want one 's' "
                 f"and one 'f')")


def crit_index(ev):
    """The 1-based chain index of a decorated span, or None. The exporter
    writes every extra arg as a double, so accept integral floats."""
    v = ev["args"].get("crit")
    if v is None:
        return None
    if not isinstance(v, (int, float)) or v != int(v) or v < 1:
        fail(f"span {ev['args']['span_id']} ('{ev['name']}') has invalid "
             f"crit index {v!r}")
    return int(v)


def check_critpath(complete, by_id):
    """Validate obs/critpath.hpp decorations: each annotated run root
    carries the five blame shares summing to 1 and a crit_chain count, and
    the spans below it with "crit" indices form exactly one contiguous,
    time-ordered chain 1..N inside the root's interval."""
    def root_of(ev):
        while ev["args"]["parent"] != 0:
            ev = by_id[ev["args"]["parent"]]
        return ev["args"]["span_id"]

    share_keys = ["crit_cpu_share", "crit_gpu_share", "crit_link_share",
                  "crit_hook_share", "crit_idle_share"]
    chains = {}   # root span_id -> {index: event}
    for ev in complete:
        idx = crit_index(ev)
        if idx is None:
            continue
        root = root_of(ev)
        if idx in chains.setdefault(root, {}):
            fail(f"duplicate crit index {idx} under root {root}")
        chains[root][idx] = ev

    annotated_roots = [ev for ev in complete
                       if any(k in ev["args"] for k in share_keys)]
    for root_ev in annotated_roots:
        args = root_ev["args"]
        sid = args["span_id"]
        if args["parent"] != 0:
            fail(f"span {sid} ('{root_ev['name']}') carries blame shares "
                 f"but is not a root span")
        for k in share_keys + ["crit_chain"]:
            if not isinstance(args.get(k), (int, float)):
                fail(f"root {sid} lacks numeric {k}")
        total = sum(args[k] for k in share_keys)
        if abs(total - 1.0) > SHARE_EPS:
            fail(f"root {sid} blame shares sum to {total}, want 1")
        chain = chains.pop(sid, {})
        if args["crit_chain"] != len(chain):
            fail(f"root {sid} declares crit_chain == {args['crit_chain']} "
                 f"but {len(chain)} spans below it carry a crit index")
        if chain and sorted(chain) != list(range(1, len(chain) + 1)):
            fail(f"root {sid} crit indices {sorted(chain)} are not "
                 f"contiguous 1..{len(chain)}")
        lo, hi = root_ev["ts"], root_ev["ts"] + root_ev["dur"]
        tol = EPS * max(abs(hi), 1.0)
        prev_end = lo
        for idx in sorted(chain):
            ev = chain[idx]
            if root_of(ev) != sid:
                fail(f"crit step {idx} is outside root {sid}'s subtree")
            if ev["ts"] < prev_end - tol:
                fail(f"crit step {idx} ('{ev['name']}') starts at "
                     f"{ev['ts']}, before step {idx - 1} ended ({prev_end})")
            prev_end = ev["ts"] + ev["dur"]
        if chain and prev_end > hi + tol:
            fail(f"crit chain under root {sid} ends at {prev_end}, past "
                 f"the root's end {hi}")
    if chains:
        root = next(iter(chains))
        fail(f"spans under root {root} carry crit indices but the root "
             f"has no blame-share annotation")
    return len(annotated_roots)


def check_doc(doc, min_spans=1, expect_chunks=None, require_wall=False):
    """The full shape check over a parsed export. Returns (spans, annotated,
    tracks); every violation goes through fail() and exits."""
    if not isinstance(doc, dict):
        fail("top level is not a JSON object")
    if doc.get("displayTimeUnit") != "ms":
        fail("missing displayTimeUnit == 'ms'")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents is not a list")

    tracks = {}
    complete = []
    flows = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") != "thread_name":
                fail(f"metadata event {i} is not a thread_name record")
            tracks[ev.get("tid")] = ev.get("args", {}).get("name")
        elif ph == "X":
            for key in ("name", "cat", "pid", "tid", "ts", "dur"):
                if key not in ev:
                    fail(f"complete event {i} ({ev.get('name', '?')}) lacks '{key}'")
            if ev["cat"] not in KINDS:
                fail(f"event {i} has unknown span kind '{ev['cat']}'")
            if ev["ts"] < 0 or ev["dur"] < 0:
                fail(f"event {i} ({ev['name']}) has negative ts/dur")
            if ev["tid"] not in tracks:
                fail(f"event {i} ({ev['name']}) targets undeclared track {ev['tid']}")
            complete.append(ev)
        elif ph in ("s", "f"):
            for key in ("name", "cat", "id", "tid", "ts"):
                if key not in ev:
                    fail(f"flow event {i} ({ev.get('name', '?')}) lacks '{key}'")
            if ph == "f" and ev.get("bp") != "e":
                fail(f"flow finish event {i} lacks bp == 'e' (Perfetto drops "
                     f"arrows that don't bind to the enclosing slice)")
            if ev["tid"] not in tracks:
                fail(f"flow event {i} targets undeclared track {ev['tid']}")
            flows.append(ev)
        else:
            fail(f"event {i} has unexpected ph '{ph}'")

    if set(tracks.values()) != TRACKS:
        fail(f"track names {sorted(tracks.values())} != {sorted(TRACKS)}")
    if len(complete) < min_spans:
        fail(f"only {len(complete)} spans, expected at least {min_spans}")

    by_id = check_nesting(complete)
    check_busy(complete, by_id, tracks)
    annotated = check_wall(complete, by_id, require_wall)
    check_flows(flows, by_id)
    check_critpath(complete, by_id)

    if expect_chunks is not None:
        chunks = sum(1 for ev in complete
                     if ev["cat"] == "transfer" and "xfer-in-chunk" in ev["name"])
        if chunks != expect_chunks:
            fail(f"{chunks} pipelined input-chunk spans, "
                 f"expected exactly {expect_chunks}")
    return len(complete), annotated, tracks


# ------------------------------------------------------------- self-test


def irregular_fixture():
    """A synthetic irregular-tree export, shaped like core/irregular.hpp's
    spans for quickhull: dynamic level widths 1 → 2 → 4 → 3 (uneven, with
    empty branches raising imbalance above 1), a split level with both a
    cpu-level and a gpu-level (waves under the gpu one), and transfers
    hanging off the expand phase."""
    meta = [{"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
             "args": {"name": name}}
            for tid, name in ((0, "host"), (1, "cpu"), (2, "gpu"), (3, "link"))]

    def span(sid, parent, name, cat, tid, ts, dur, extra=None):
        args = {"span_id": sid, "parent": parent}
        if extra:
            args.update(extra)
        return {"ph": "X", "name": name, "cat": cat, "pid": 1, "tid": tid,
                "ts": ts, "dur": dur, "args": args}

    events = meta + [
        span(1, 0, "quickhull", "run", 0, 0.0, 100.0),
        span(2, 1, "quickhull/pre", "hook", 1, 0.0, 2.0),
        span(3, 1, "quickhull/expand", "phase", 0, 2.0, 90.0),
        # Level widths 1, 2, 4, 3: an irregular tree (a=2 would predict
        # 1, 2, 4, 8 — early-terminated branches shrink the last level).
        span(4, 3, "cpu-level", "level", 1, 2.0, 10.0,
             {"level": 0, "tasks": 1, "extent_words": 64, "imbalance": 1.0}),
        span(5, 3, "cpu-level", "level", 1, 12.0, 20.0,
             {"level": 1, "tasks": 2, "extent_words": 63, "imbalance": 1.3}),
        # Split level: CPU part and GPU part overlap in virtual time.
        span(6, 3, "xfer-in", "transfer", 3, 32.0, 4.0, {"bytes": 256}),
        span(7, 3, "cpu-level", "level", 1, 36.0, 18.0,
             {"level": 2, "tasks": 1, "extent_words": 16, "imbalance": 2.0}),
        span(8, 3, "gpu-level", "level", 2, 36.0, 30.0,
             {"level": 2, "tasks": 3, "extent_words": 40, "imbalance": 2.0}),
        span(9, 8, "wave", "wave", 2, 36.0, 15.0, {"items": 2}),
        span(10, 8, "wave", "wave", 2, 51.0, 15.0, {"items": 1}),
        span(11, 3, "xfer-out", "transfer", 3, 66.0, 4.0, {"bytes": 160}),
        # One empty branch survives into the last level (3 tasks, not 8).
        span(12, 3, "cpu-level", "level", 1, 70.0, 22.0,
             {"level": 3, "tasks": 3, "extent_words": 9, "imbalance": 2.7}),
        span(13, 1, "quickhull/finalize", "hook", 1, 92.0, 8.0),
    ]
    return {"displayTimeUnit": "ms", "traceEvents": events}


def crit_fixture():
    """The irregular fixture with its critical path decorated the way
    obs::add_to_extras does: "crit" chain indices on the chain spans, the
    five blame shares + crit_chain on the run root, and an "s"/"f" flow
    pair between each consecutive chain step."""
    fix = irregular_fixture()
    by_sid = {ev["args"]["span_id"]: ev for ev in fix["traceEvents"]
              if ev.get("ph") == "X"}
    # hook 0-2 -> levels 2-12, 12-32 -> xfer 32-36 -> gpu 36-66 ->
    # xfer 66-70 -> level 70-92 -> hook 92-100: contiguous, covers the run.
    chain = [2, 4, 5, 6, 8, 11, 12, 13]
    for i, sid in enumerate(chain):
        by_sid[sid]["args"]["crit"] = float(i + 1)
    by_sid[1]["args"].update({
        "crit_chain": float(len(chain)),
        "crit_cpu_share": 0.52,   # levels 4, 5, 12: 10 + 20 + 22 ticks
        "crit_gpu_share": 0.30,   # gpu-level 8
        "crit_link_share": 0.08,  # xfer-in 6 + xfer-out 11
        "crit_hook_share": 0.10,  # hooks 2 + 13
        "crit_idle_share": 0.0,
    })
    for i in range(len(chain) - 1):
        src, dst = by_sid[chain[i]], by_sid[chain[i + 1]]
        common = {"name": "critical-path", "cat": "critpath", "id": i + 1,
                  "pid": 1}
        fix["traceEvents"].append(
            {"ph": "s", "tid": src["tid"],
             "ts": src["ts"] + src["dur"],
             "args": {"span_id": chain[i]}, **common})
        fix["traceEvents"].append(
            {"ph": "f", "bp": "e", "tid": dst["tid"], "ts": dst["ts"],
             "args": {"span_id": chain[i + 1]}, **common})
    return fix


def expect_fail(doc, why):
    """The negative half of the self-test: check_doc must exit non-zero
    (its failure message is swallowed — the rejection is the expectation)."""
    saved, sys.stderr = sys.stderr, io.StringIO()
    try:
        check_doc(doc)
    except SystemExit as e:
        if e.code:
            return
    finally:
        sys.stderr = saved
    print(f"check_trace: SELF-TEST FAIL: {why} was not rejected",
          file=sys.stderr)
    sys.exit(1)


def self_test():
    fix = irregular_fixture()
    spans, _, _ = check_doc(fix, min_spans=13)
    widths = [ev["args"]["tasks"] for ev in fix["traceEvents"]
              if ev.get("cat") == "level"]
    if widths != [1, 2, 1, 3, 3]:
        fail(f"fixture level widths drifted: {widths}")

    # A level escaping its phase must be rejected...
    bad = irregular_fixture()
    bad["traceEvents"][-2]["ts"] = 200.0  # last cpu-level now outside run
    expect_fail(bad, "escaping level span")

    # ...and so must a wave whose parent level was dropped.
    orphan = irregular_fixture()
    orphan["traceEvents"] = [ev for ev in orphan["traceEvents"]
                             if ev.get("args", {}).get("span_id") != 8]
    expect_fail(orphan, "wave with a missing parent level")

    # ...and so must a second CPU level booked over the others: the CPU
    # would be busy for 110 of the run's 100 ticks.
    double = irregular_fixture()
    double["traceEvents"].append(
        {"ph": "X", "name": "cpu-level", "cat": "level", "pid": 1, "tid": 1,
         "ts": 36.0, "dur": 30.0,
         "args": {"span_id": 14, "parent": 3, "level": 2, "tasks": 1}})
    expect_fail(double, "CPU busy for longer than its run")

    # The decorated export passes as-is...
    crit = crit_fixture()
    check_doc(crit, min_spans=13)

    # ...but not with a hole punched in the chain indices,
    broken = crit_fixture()
    for ev in broken["traceEvents"]:
        if ev.get("args", {}).get("crit") == 3.0:
            ev["args"]["crit"] = 9.0
    expect_fail(broken, "non-contiguous crit chain")

    # nor with blame shares off 1,
    off = crit_fixture()
    for ev in off["traceEvents"]:
        if "crit_cpu_share" in ev.get("args", {}):
            ev["args"]["crit_cpu_share"] = 0.9
    expect_fail(off, "blame shares summing past 1")

    # nor with a flow arrow pointing at a span that doesn't exist,
    dangling = crit_fixture()
    next(ev for ev in dangling["traceEvents"]
         if ev.get("ph") == "s")["args"]["span_id"] = 999
    expect_fail(dangling, "flow referencing an unknown span")

    # nor with chain indices whose root never got its blame shares.
    bare = crit_fixture()
    for ev in bare["traceEvents"]:
        for k in list(ev.get("args", {})):
            if k.startswith("crit_"):
                del ev["args"][k]
    expect_fail(bare, "crit chain without root shares")

    print(f"check_trace: self-test OK ({spans} fixture spans, irregular "
          f"widths nest run -> phase -> level -> wave; critical-path "
          f"decorations round-trip and the broken variants, a double-booked "
          f"CPU included, are rejected)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", nargs="?",
                    help="Chrome trace-event JSON file to check")
    ap.add_argument("--min-spans", type=int, default=1,
                    help="minimum number of complete (ph=X) events required")
    ap.add_argument("--expect-chunks", type=int, default=None,
                    help="exact number of pipelined input-chunk transfer "
                         "spans (name contains 'xfer-in-chunk') required")
    ap.add_argument("--require-wall", action="store_true",
                    help="fail when the export carries no wall-clock "
                         "annotations (expects a --profile run)")
    ap.add_argument("--self-test", action="store_true",
                    help="validate the checker against built-in fixtures "
                         "(including an irregular-tree export) and exit")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if args.trace is None:
        ap.error("trace file required (or --self-test)")

    try:
        with open(args.trace, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {args.trace}: {e}")

    spans, annotated, tracks = check_doc(doc, args.min_spans,
                                         args.expect_chunks, args.require_wall)
    print(f"check_trace: OK: {spans} spans ({annotated} wall-annotated) "
          f"across {len(tracks)} tracks in {args.trace}")


if __name__ == "__main__":
    main()

"""One fresh interpreter of a benchmark run: set up, signal, then sweep.

Started by run.py with a JSON job as its only argument.  It prints
``ready`` once the set-up is done, so the parent can time the set-up from
outside, then runs whole passes over the partitions until its share of the
run is used, and prints one JSON line with what it measured.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time


# a serial pass stops for the calibration task between fusions this often
CAL_EVERY_S = 2.0


class _PassClock:
    """Progress callback of a serial pass: times each fusion from outside.

    Every CAL_EVERY_S seconds it runs the calibration task between two
    fusions; that time is left out of the fusion times and the pass time.
    """

    def __init__(self, calibrate, cal_before: float):
        self.calibrate = calibrate
        self.cals = [cal_before]
        self.fusion_ms: list[float] = []
        self.paused_s = 0.0
        self.resume = self.last_cal = time.perf_counter()

    def __call__(self, done: int, total: int):
        now = time.perf_counter()
        self.fusion_ms.append((now - self.resume) * 1000.0)
        self.resume = now
        if done < total and now - self.last_cal >= CAL_EVERY_S:
            self.cals.append(self.calibrate())
            self.resume = self.last_cal = time.perf_counter()
            self.paused_s += self.resume - now


def _cpu_of_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def main(job: dict) -> dict:
    import planeschemes as ps
    from planeschemes.report import record_to_dict
    from planeschemes.subgroups import exceptional_subgroups

    src = os.path.realpath(job["src"])
    if not os.path.realpath(ps.__file__).startswith(src + os.sep):
        raise SystemExit(f"planeschemes was imported from {ps.__file__}, not {src}")
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer().install()
        if job["jobs"] > 1:
            tracer.install_pool_relay()
    p = job["p"]
    if job["build_tables"]:
        ps.build_affine_scheme(p)
        exceptional_subgroups(p, "alt4")
        exceptional_subgroups(p, "alt5")
    setup_spans = len(tracer.spans) if tracer else 0
    print("ready", flush=True)
    from calibrate import calibrate     # after 'ready': not part of the set-up

    cal_after_ready = calibrate()
    if job["setup_only"]:
        return {"cal_after_ready": cal_after_ready}

    parts = [ps.SlopePartition.from_string(s) for s in job["partitions"]]
    fill_dir = job["fill_dir"]
    fill_cpu_s = None
    if job["fill"]:
        cpu0 = time.process_time()
        ps.run_sweep(p, parts, cache=ps.AutCache(fill_dir))
        fill_cpu_s = time.process_time() - cpu0
    passes, records, traced = [], {}, []
    cal = calibrate()
    start = time.perf_counter()
    while True:
        pass_dir = os.path.join(job["cache_dir"], f"pass-{len(passes)}")
        if fill_dir:
            shutil.copytree(fill_dir, pass_dir)
        if tracer:
            traced.append([len(tracer.spans), None, dict(tracer.counters), None])
        serial = job["jobs"] == 1
        cpu0 = _cpu_of_children()
        clock = _PassClock(calibrate, cal) if serial else None
        t0 = time.perf_counter()
        recs = ps.run_sweep(p, parts, jobs=job["jobs"], cache=ps.AutCache(pass_dir),
                            progress=clock)
        t1 = time.perf_counter()
        worker_cpu = _cpu_of_children() - cpu0
        cals = (clock.cals if serial else [cal]) + [calibrate()]
        cal = cals[-1]
        if tracer:
            traced[-1][1], traced[-1][3] = len(tracer.spans), dict(tracer.counters)
        shutil.rmtree(pass_dir)
        # the pool hands back results in ordered chunks of 16, so the time
        # between callbacks says nothing of one fusion: take the workers' own
        # elapsed_ms, timed by the library around each classification
        fusion_ms = clock.fusion_ms if serial else [r.elapsed_ms for r in recs]
        digest = ps.report_digest(recs)
        if digest not in records:
            records[digest] = [record_to_dict(r) for r in recs]
        passes.append({"wall_s": t1 - t0 - (clock.paused_s if serial else 0.0),
                       "records": len(recs), "digest": digest,
                       "fusion_ms": fusion_ms, "worker_cpu_s": worker_cpu,
                       "cal_s": sum(cals) / len(cals), "calibrations": len(cals)})
        if t1 - start + (t1 - t0) > job["seconds"]:
            break   # whole passes only: stop when another would overrun

    out = {
        "cal_after_ready": cal_after_ready,
        "fill_cpu_s": fill_cpu_s,
        "passes": passes,
        "records": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = _trace_summary(tracer, setup_spans, traced)

        def pass_of(i):
            return next((k for k, (a, b, _, _) in enumerate(traced) if a <= i < b), -1)

        tracer.write(job["trace_file"], pass_of)
    return out


def _trace_summary(tracer, setup_spans: int, traced) -> dict:
    """Per-layer totals over all passes, and the lattice time per process."""
    from spans import aggregate, merge

    totals: dict = {}
    for first, last, before, after in traced:
        merge(totals, aggregate(tracer.spans[first:last], first))
        merge(totals, {k: v - before.get(k, 0) for k, v in after.items()})
    merge(totals, tracer.worker)
    setup = aggregate(tracer.spans[:setup_spans])
    lattice = "subgroups.subgroup_lattice"
    built_in = (1 if f"{lattice}.calls" in setup else 0) + len(tracer.worker_pids)
    return {"totals": totals,
            "lattice_ms": setup.get(f"{lattice}.ms", 0.0) + totals.get(f"{lattice}.ms", 0.0),
            "lattice_procs": built_in}


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    result = main(json.loads(sys.argv[1]))
    print(json.dumps(result), flush=True)

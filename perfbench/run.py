#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the closed EECS loop.

    python3 perfbench/run.py --workload ds1_adaptive --seed 777 --seconds 3 --trace 0

Run from the repository root. Builds the harness (perfbench/eecs_perfbench.cpp)
as part of the root CMake project, in Release, twice: into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), the measured
build, and into perfbench-obs-off with EECS_OBS_OFF. Then it runs:

  --trace 0  end-to-end figures from one harness process. It sets up (detector training plus
             the offline knowledge build) several times, then cycles the
             workload's loop over the run's scenes (scene i has seed
             seed + 7919 * i) until at least --seconds of loop time have
             passed, in whole cycles (one cycle at BENCHMARK.json's
             run_seconds, so total_s covers a fixed amount of work), then
             runs the first scene once more. run_s and cpu_s are medians
             over the cycles' passes; energy_j and humans_detected are
             means over the scenes (the --seed scene's own output is in
             the context line); total_s is the harness process's wall time.
  --trace 1  per-layer figures from one traced run of the measured build;
             writes a Chrome trace and the model-vs-measured kernel table
             under $CARGO_TARGET_DIR/perfbench-traces.
             obs.trace_overhead_fraction compares its traced passes with the
             same passes run by the obs-off build, whose result must be
             bit-identical. stage.*, detect.cache_*,
             detect.windows_*, net.delivery_ratio and net.assignments_retried
             come from the loop's own spans and counters; the kernel,
             detect.*.score, features, domain, reid, controller, net.send,
             runtime and energy figures come from replaying the workload's
             frames through each layer's public functions (kernels per camera
             frame, summed over the workload's detectors, each on a cold
             cache; scoring on the warmed cache).

Load: one process with at most nproc worker threads (4, one per camera). The
loop is a closed batch loop: the simulation advances one ground-truth step
only after the previous one completes, so there is no arrival rate; run_s is
the time per pass at the workload's fixed input size.

Every pass is checked: the energy ledger closes, evaluated + pruned windows
equal the full-sweep count, a scene run twice gives the same result (the
durable workload's repeat runs uninterrupted, so its resumed run must equal
it), and at the default seed each workload reproduces its reference output.
The last line of stdout is the JSON result; build logs go to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("ds1_adaptive", "ds1_gated_durable", "ds2_highres")

# Two builds of the harness: the measured one, and one with obs compiled out
# for the untraced side of the tracing-overhead comparison.
BUILDS = {"perfbench": [], "perfbench-obs-off": ["-DEECS_OBS_OFF=ON"]}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "total_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "energy_j": "J",
    "humans_detected": "count",
}

# name -> (unit, end-to-end metric it should move, workload it mostly shows on)
PER_LAYER = {
    "offline.train_detectors_s": ("s", "setup_s", "all"),
    "offline.knowledge_s": ("s", "setup_s", "ds2_highres"),
    "stage.render_s": ("s", "run_s", "all"),
    "stage.detect_s": ("s", "run_s", "all"),
    "stage.features_s": ("s", "run_s", "all"),
    "stage.controller_s": ("s", "run_s", "all"),
    "stage.net_s": ("s", "run_s", "all"),
    "stage.other_s": ("s", "run_s", "all"),
    "video.render_ms_per_step": ("ms", "run_s", "ds2_highres"),
    "kernel.resize.ms_per_frame": ("ms", "run_s, cpu_s", "ds2_highres"),
    "kernel.resize.ns_per_op": ("ns", "run_s, cpu_s", "ds2_highres"),
    "kernel.block_grid.ms_per_frame": ("ms", "run_s", "ds1_adaptive"),
    "kernel.block_grid.ns_per_op": ("ns", "run_s", "ds1_adaptive"),
    "kernel.acf_channels.ms_per_frame": ("ms", "run_s", "ds2_highres"),
    "kernel.acf_channels.ns_per_op": ("ns", "run_s", "ds2_highres"),
    "detect.hog.score_ms_per_frame": ("ms", "run_s", "ds1_adaptive"),
    "detect.hog.ns_per_classifier_op": ("ns", "run_s", "ds1_adaptive"),
    "detect.acf.score_ms_per_frame": ("ms", "run_s", "ds2_highres"),
    "detect.acf.ns_per_classifier_op": ("ns", "run_s", "ds2_highres"),
    "detect.windows_evaluated_fraction": ("ratio", "energy_j, run_s", "ds1_gated_durable"),
    "detect.cache_hit_ratio": ("ratio", "run_s", "ds1_adaptive"),
    "sweep.plan_prewarm_ms_per_frame": ("ms", "run_s", "ds1_adaptive"),
    "sweep.tiles_pruned_fraction": ("ratio", "run_s, energy_j", "ds1_gated_durable"),
    "features.frame_feature_ms": ("ms", "run_s", "all"),
    "features.color_feature_us": ("us", "run_s", "ds1_adaptive"),
    "domain.match_ms": ("ms", "run_s", "all"),
    "reid.group_us": ("us", "run_s", "ds1_adaptive"),
    "controller.select_ms": ("ms", "run_s", "ds1_adaptive"),
    "net.send_us": ("us", "run_s", "ds1_gated_durable"),
    "net.delivery_ratio": ("ratio", "humans_detected, energy_j", "ds1_gated_durable"),
    "net.assignments_retried": ("count", "energy_j", "ds1_gated_durable"),
    "runtime.checkpoint_ms": ("ms", "run_s", "ds1_gated_durable"),
    "runtime.checkpoint_bytes": ("bytes", "run_s", "ds1_gated_durable"),
    "runtime.resume_ms": ("ms", "run_s", "ds1_gated_durable"),
    "parallel.detect_speedup": ("x", "run_s, cpu_s", "ds1_adaptive"),
    "parallel.camera_imbalance": ("ratio", "run_s", "ds1_adaptive"),
    "obs.trace_overhead_fraction": ("ratio", "run_s", "all"),
    "energy.compute_ops_per_camera_frame": ("count", "energy_j", "all"),
}

CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build both harness builds; returns {build: binary}."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no CMakeLists.txt at %s: run from a full checkout" % ROOT)
    jobs = str(max(1, os.cpu_count() or 1))
    binaries = {}
    for name, flags in BUILDS.items():
        build_dir = os.path.join(target_dir(), name)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", ROOT, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
                 "-DCMAKE_PROJECT_eecs_INCLUDE=" + os.path.join(HERE, "project_hook.cmake")]
                + flags, check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "--target", "eecs_perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
        binaries[name] = os.path.join(build_dir, "eecs_perfbench")
    return binaries


def run_child(cmd):
    """Run one harness process; returns (parsed last stdout line, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("harness exited with %d" % proc.returncode)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("harness printed no result")
    return json.loads(lines[-1]), wall


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description="EECS closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=777)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-check knob (perfbench/selfcheck.py): end the segment at this frame,
    # with one scene and one set-up.
    parser.add_argument("--end-frame", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        binaries = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as err:
        log("perfbench: build failed: %s" % err)
        return 1

    args_common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.end_frame > 0:
        args_common += ["--end-frame", str(args.end_frame)]
    scratch = tempfile.mkdtemp(prefix="run-", dir=target_dir())
    context = {}
    try:
        if args.trace:
            out_dir = os.path.join(target_dir(), "perfbench-traces")
            os.makedirs(out_dir, exist_ok=True)
            untraced, _ = run_child([binaries["perfbench-obs-off"]] + args_common
                                    + ["--mode", "untraced", "--out-dir", scratch])
            child, _ = run_child([binaries["perfbench"]] + args_common
                                 + ["--mode", "trace", "--out-dir", out_dir])
            overhead = child["traced_run_s"] / untraced["run_s"] - 1.0
            child["metrics"]["obs.trace_overhead_fraction"] = overhead
            metrics = {name: metric(child["metrics"][name], unit)
                       for name, (unit, _, _) in PER_LAYER.items()}
            for name, (_, moves, where) in PER_LAYER.items():
                log("per-layer %-36s moves %-26s mostly on %s" % (name, moves, where))
            log("trace written to %s" % child["trace_file"])
            log("tracing overhead %.4f (traced %.4f s, obs-off %.4f s): %s the 2%% obs budget"
                % (overhead, child["traced_run_s"], untraced["run_s"],
                   "within" if overhead <= 0.02 else "OVER"))
            attempted = int(child["attempted"]) + int(untraced["attempted"])
            failed = int(child["failed"]) + int(untraced["failed"])
            if not untraced["ok"]:
                child["ok"] = False
                child["detail"] += "; obs-off build: " + untraced["detail"]
            if untraced["digest"] != child["digest"]:
                child["ok"] = False
                failed += 1
                child["detail"] += "; obs-off result differs from the obs-on result"
            context["obs_off"] = untraced["context"]
        else:
            child, wall = run_child([binaries["perfbench"]] + args_common
                                    + ["--mode", "timed", "--out-dir", scratch,
                                       "--seconds", repr(args.seconds)])
            values = {name: child.get(name) for name in END_TO_END}
            values["total_s"] = wall
            metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
            attempted = int(child["attempted"])
            failed = int(child["failed"])
            context["seed_scene"] = {"energy_j": child["seed_scene_energy_j"],
                                     "humans_detected": child["seed_scene_humans_detected"]}
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as err:
        log("perfbench: run failed: %s" % err)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not child["ok"]:
        log("perfbench: output check FAILED: %s" % child["detail"])
    print(json.dumps(dict({"context": child["context"], "workload": args.workload,
                           "seed": args.seed, "trace": args.trace}, **context)))
    print(json.dumps({"correct": bool(child["ok"]) and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

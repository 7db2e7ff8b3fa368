"""One ``selab run`` in a fresh process, timed from the inside.

Usage: child.py PLAN_JSON OUT_DIR LAUNCHED TRACE_FILE

LAUNCHED is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` spans interpreter start, ``import selab.cli`` and
``parse_plan``.  ``wall_s`` is ``run_plan`` alone, CSV and summary writes
included.  TRACE_FILE is ``-`` for an untraced run; otherwise the run is
traced and its spans are written there after the run.  Prints one JSON
object on stdout.
"""

import ctypes
import json
import sys
import time
from pathlib import Path


def blas_info() -> dict:
    """OpenBLAS build string and thread count as loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    info = {"libraries": libs, "config": None, "threads": None}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                info["threads"] = get_threads()
                info["config"] = get_config().decode()
                return info
    return info


def peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB.

    ``getrusage(RUSAGE_SELF).ru_maxrss`` would do, but Linux carries the
    launching process's peak into it across exec, so the benchmark's own
    footprint would show up in every run.  ``VmHWM`` starts afresh at exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    plan_path, out_dir, launched, trace_file = argv
    from selab import cli
    plan = cli.parse_plan(Path(plan_path).read_text())
    setup_s = time.monotonic() - float(launched)

    tracer = None
    if trace_file != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    _, checks = cli.run_plan(plan, Path(out_dir), threads=1)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = peak_rss_kb() / 1024

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "checks": checks, "selab_file": cli.__file__,
              "blas": blas_info()}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.fid)
        tracer.save(trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

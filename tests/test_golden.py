"""Golden CSV bytes: small plans per experiment and per step-draw route.

The digests were recorded before the occupation bookkeeping moved to block
updates; any change to a CSV byte of these plans is a change of output, not
a refactoring.  The fclt digest was re-recorded twice.  First, when numpy
scalars stopped being written as ``np.float64(...)``: every cell kept its
value.  Second, when ``mc_fclt`` began to read its bridge off each seed's
sampled ECDF, n (F_n(s) - F(s)) / sqrt(V_n), and to sum the covariance
over the replicates, in place of a local-time-weighted indicator matrix and
two BLAS products, whose bits depended on the OpenBLAS kernel: the cov and
stderr cells moved in their last 2 or 3 digits, and target kept its value.
The rw_asym digest was re-recorded once, when its rows moved from a
``np.cumsum`` of M_k / k^2 to the ledger's correctly rounded sum: only the
pqd_partial_sum column changed, by 2 to 21 ulps, and each of its cells
is the exact rational sum that the test below checks.  variance.csv is
hashed without its four series columns, which depend on the return-series
tail estimate rather than on the Monte Carlo.  The coboundary, window and
discrete-field digests were recorded before the step draws and the discrete
quantile moved from ``np.searchsorted`` to a guide-table inverse cdf.
"""

import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import selab
from selab import generate, ledger, rng, trajectory_stats
from selab.cli import parse_plan, run_plan

# keyed by the name of the CSV file each plan writes, with a suffix after
# "-" where several plans write the same file
PLANS = {
    "stats": {"experiment": "stats",
              "source": {"variant": "rw", "simple": 2, "seed": 5},
              "n": 20000, "checkpoints": [100, 4000, 9000, 20000]},
    "gc": {"experiment": "gc",
           "source": {"variant": "rw", "simple": 3, "seed": 7},
           "field": {"variant": "uniform"}, "n": 12000,
           "checkpoints": [120, 1200, 12000], "replicates": 4, "seed_base": 8},
    "fclt": {"experiment": "fclt",
             "source": {"variant": "rw", "simple": 2, "seed": 4},
             "field": {"variant": "gaussian"}, "n": 400, "grid": [-0.5, 0.5],
             "replicates": 100, "seed_base": 9},
    "rw_asym": {"experiment": "rw-asym",
                "source": {"variant": "rw", "atoms": [[[1], 0.6], [[-1], 0.4]],
                           "seed": 3},
                "checkpoints": [100, 1000, 5000], "replicates": 3,
                "seed_base": 2},
    "rotation": {"experiment": "rotation",
                 "source": {"variant": "rotation", "cf": {"periodic": [1]},
                            "x": {"seed": 12}},
                 "checkpoints": [10, 100, 1000, 10000, 30000]},
    "counterexample": {"experiment": "counterexample",
                       "source": {"variant": "special-flow",
                                  "cf": {"periodic": [1]}, "levels": 2,
                                  "x": "0"}, "budget": 10**6},
    "variance": {"experiment": "variance",
                 "source": {"variant": "rw", "simple": 3, "seed": 1},
                 "field": {"variant": "gaussian"}, "n": 600,
                 "replicates": 8, "seed_base": 2, "kmax": 40},
    # the step draws of a coboundary law and a window alphabet, each with a
    # zero-probability atom, and a discrete field's quantile, listed out of
    # value order
    "stats-coboundary": {
        "experiment": "stats",
        "source": {"variant": "coboundary",
                   "atoms": [[[0, 0], 0.25], [[1, 0], 0.125], [[0, 1], 0.125],
                             [[-1, 2], 0.0], [[3, -1], 0.5]], "seed": 11},
        "n": 5000, "checkpoints": [10, 500, 5000]},
    "stats-window": {
        "experiment": "stats",
        "source": {"variant": "window",
                   "inner": [[0, 0.2], [1, 0.0], [2, 0.5], [3, 0.3]], "r": 2,
                   "table": {f"{a},{b}": [a - b, (a * b) % 3 - 1]
                             for a in range(4) for b in range(4)},
                   "seed": 13},
        "n": 5000, "checkpoints": [10, 500, 5000]},
    "gc-discrete": {
        "experiment": "gc",
        "source": {"variant": "rw", "simple": 2, "seed": 17},
        "field": {"variant": "discrete",
                  "atoms": [[2.0, 0.3], [-1.0, 0.0], [0.5, 0.2], [1.5, 0.5]]},
        "n": 6000, "checkpoints": [60, 600, 6000], "replicates": 4,
        "seed_base": 19},
}

DIGESTS = {
    "stats": "0da3e49b153786d74e5f7d1f33d91a67a34b78801df0d2736fb98538f4753ce3",
    "gc": "3881d028b93fb49141a8e1a2ab197c687685b15f293527d3ba2ad17cad2674ba",
    "fclt": "5d587d3854eee4304d9c40ec6c80c479da0443864f36394c75887e724b55a7ca",
    "rw_asym": "5149079ed93a6f8b8244d8f65a2c3d01d63795b30522509c028a6d15033b4321",
    "rotation": "081b6be57e65847854329cedcae3a36f4d4db2bf316d4772f4023ebb7856a58e",
    "counterexample":
        "9cb3a3fa180e3f1bc1f9f4808b548996819ec14b5766de9261c99a58bfd1198f",
    "variance": "25500ff8e2e0e1114fbb97a2ec443baabd72ab4427c26400f76cc84e9a176775",
    "stats-coboundary":
        "94320bb96c0dc424cfc4fbceca0e4bbf92ee3063f7aa893986c2f1d395fd2d72",
    "stats-window":
        "320d4c3daac37b02496013453453a9c7c87409fac0fbf7067ceef7fd0f47fde4",
    "gc-discrete":
        "55ee9d527e2f16a1e1dfe86293c7eff301a5e3b07f59b7cc2db0629c76940759",
}

SERIES_COLUMNS = ("series_prediction", "tail_bound", "defect_estimate",
                  "positive")


@pytest.mark.parametrize("name", sorted(PLANS))
def test_csv_bytes_match_the_recorded_digest(name, tmp_path):
    run_plan(parse_plan(json.dumps(PLANS[name])), tmp_path)
    path = tmp_path / f"{name.split('-')[0]}.csv"
    rows = list(csv.reader(io.StringIO(path.read_text())))
    for cell in (c for row in rows[1:] for c in row):
        if cell not in ("True", "False"):
            float(cell)  # raises on numpy reprs such as "np.float64(0.5)"
    if name == "variance":
        keep = [i for i, h in enumerate(rows[0]) if h not in SERIES_COLUMNS]
        data = "\n".join(",".join(r[i] for i in keep) for r in rows).encode()
    else:
        data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]


def _cpu_features() -> tuple[dict, list]:
    """numpy's CPU features of this machine and its dispatch targets, the
    instruction sets above its baseline that it picks kernels for."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_features__, umath.__cpu_dispatch__


def _has_avx2() -> bool:
    return _cpu_features()[0].get("AVX2", False)


# plans whose CSVs once read BLAS or LAPACK: fclt's bridge, the variance
# report's finite-n mean, the Fourier-grid return series of a law whose
# atoms move two coordinates, the geometric tail fit of a law with a
# drift, whose series_prediction once came from np.polyfit, and the axis
# series of a law with steps of up to 6 along axis 0, which np.convolve
# once summed by BLAS's dot
KERNEL_PLANS = {
    "fclt": PLANS["fclt"], "variance": PLANS["variance"],
    "variance-grid": dict(PLANS["variance"], kmax=30, source={
        "variant": "rw", "seed": 1,
        "atoms": [[[s * a for a in atom], 1 / 6] for s in (1, -1)
                  for atom in ([1, 1, 0], [0, 1, 1], [1, 0, 1])]}),
    "variance-drift": dict(PLANS["variance"], kmax=60, source={
        "variant": "rw", "seed": 1,
        "atoms": [[[1, 0], 0.4], [[-1, 0], 0.2], [[0, 1], 0.2],
                  [[0, -1], 0.2]]}),
    "variance-wide": dict(PLANS["variance"], kmax=60, source={
        "variant": "rw", "seed": 1,
        "atoms": [[[s * k, 0, 0], 1 / 24] for k in range(1, 7)
                  for s in (1, -1)]
        + [[[0, s, 0], 1 / 8] for s in (1, -1)]
        + [[[0, 0, s], 1 / 8] for s in (1, -1)]}),
}


def _child_env(**env) -> dict:
    """This process's environment, without an OpenBLAS kernel or a numpy
    CPU feature set named, with selab importable, plus ``env``."""
    named = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    return dict({k: v for k, v in os.environ.items() if k not in named},
                PYTHONPATH=os.pathsep.join([
                    os.path.dirname(os.path.dirname(selab.__file__)),
                    os.path.dirname(__file__)]), **env)


def _csv_bytes(plans, out, **env):
    """The CSVs of ``plans``, written by a new process whose environment
    is :func:`_child_env` of ``env``."""
    code = ("import json, pathlib, sys\n"
            "from selab.cli import parse_plan, run_plan\n"
            "for name, plan in json.loads(sys.argv[2]).items():\n"
            "    run_plan(parse_plan(json.dumps(plan)),\n"
            "             pathlib.Path(sys.argv[1], name))\n")
    subprocess.run([sys.executable, "-c", code, str(out), json.dumps(plans)],
                   check=True, env=_child_env(**env))
    return {k: (out / k / f"{k.split('-')[0]}.csv").read_bytes()
            for k in plans}


def test_csv_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # Haswell is the kernel OpenBLAS picks on AVX2-only Intel CPUs and on
    # AMD Zen, Prescott its SSE3 fallback; every column counts here,
    # variance.csv's series columns included
    kernels = [None, "Prescott"] + (["Haswell"] if _has_avx2() else [])
    got = [_csv_bytes(KERNEL_PLANS, tmp_path / str(k),
                      **({"OPENBLAS_CORETYPE": k} if k else {}))
           for k in kernels]
    assert all(g == got[0] for g in got[1:])


# every golden plan and the grid-route variance plan
BLOCK_PLANS = dict(PLANS, **{"variance-grid": KERNEL_PLANS["variance-grid"]})


def _plan_bytes(root):
    """The CSV bytes of every plan of ``BLOCK_PLANS``, run in this process."""
    out = {}
    for name, plan in BLOCK_PLANS.items():
        run_plan(parse_plan(json.dumps(plan)), root / name)
        out[name] = (root / name / f"{name.split('-')[0]}.csv").read_bytes()
    return out


@pytest.fixture(scope="module")
def default_block_bytes(tmp_path_factory):
    return _plan_bytes(tmp_path_factory.mktemp("default-block"))


def test_csv_bytes_do_not_depend_on_the_simd_dispatch(default_block_bytes,
                                                     tmp_path):
    # numpy picks a kernel per instruction set above its baseline (sort,
    # bincount, the scatters and the float loops); a child process with
    # every such set this CPU has switched off must write the same bytes
    features, dispatch = _cpu_features()
    targets = [t for t in dispatch if features.get(t)]
    if not targets:
        pytest.skip("this CPU has no numpy dispatch target above the "
                    "baseline")
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    # the child's numpy must see the targets as switched off
    seen = subprocess.run(
        [sys.executable, "-c", "import json, test_golden; "
         "print(json.dumps(test_golden._cpu_features()[0]))"],
        check=True, capture_output=True, text=True, env=_child_env(**env))
    assert not any(json.loads(seen.stdout)[t] for t in targets)
    assert _csv_bytes(BLOCK_PLANS, tmp_path, **env) == default_block_bytes


@pytest.mark.parametrize("block", [7, 1000, 1 << 20])
def test_csv_bytes_do_not_depend_on_the_block(block, default_block_bytes,
                                              tmp_path, monkeypatch):
    # the feed splits at BLOCK steps and at the checkpoints; a split may
    # move no CSV byte, whether blocks are shorter than a checkpoint gap,
    # hold many sites or take a whole plan at once
    monkeypatch.setattr(ledger, "BLOCK", block)
    assert _plan_bytes(tmp_path) == default_block_bytes


@pytest.mark.parametrize("name", ["rotation", "rw_asym", "stats"])
def test_pqd_cells_are_the_exact_sum_of_the_rounded_terms(name, tmp_path):
    """Each pqd_partial_sum cell is float(sum of the terms m / (k * k)),
    summed as rationals, over the per-step M of the cell's trajectory."""
    plan = parse_plan(json.dumps(PLANS[name]))
    run_plan(plan, tmp_path)
    rows = list(csv.DictReader(io.StringIO(
        (tmp_path / f"{name}.csv").read_text())))
    for rep in sorted({row.get("rep") for row in rows}):
        src = plan["_source"]
        if rep is not None:
            src = dataclasses.replace(src, seed=rng.derive(
                plan["seed_base"], "walk", int(rep)))
        cells = {int(r["n"]): float(r["pqd_partial_sum"])
                 for r in rows if r.get("rep") == rep}
        m = trajectory_stats(generate(src, max(cells))).m
        total, exact = Fraction(0), {}
        for k, m_k in enumerate(m.tolist(), start=1):
            total += Fraction(m_k / (k * k))
            if k in cells:
                exact[k] = float(total)
        assert cells == exact, rep

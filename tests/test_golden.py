"""Golden CSV bytes: one small plan per experiment.

The digests were recorded before the occupation bookkeeping moved to block
updates; any change to a CSV byte of these plans is a change of output, not
a refactoring.  variance.csv is hashed without its four series columns,
which depend on the return-series tail estimate rather than on the Monte
Carlo.
"""

import csv
import hashlib
import io
import json

import pytest

from selab.cli import parse_plan, run_plan

# keyed by the name of the CSV file each plan writes
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
}

DIGESTS = {
    "stats": "0da3e49b153786d74e5f7d1f33d91a67a34b78801df0d2736fb98538f4753ce3",
    "gc": "3881d028b93fb49141a8e1a2ab197c687685b15f293527d3ba2ad17cad2674ba",
    "fclt": "482d18e789735e461cf7c72744a367f0fad13c062a2e8cef7a6f85655fac660b",
    "rw_asym": "5f0e0850b83e8053471ab84f5ecbc2b670a1a5c7db14d2b5acc17eaaa5fceddd",
    "rotation": "081b6be57e65847854329cedcae3a36f4d4db2bf316d4772f4023ebb7856a58e",
    "counterexample":
        "9cb3a3fa180e3f1bc1f9f4808b548996819ec14b5766de9261c99a58bfd1198f",
    "variance": "25500ff8e2e0e1114fbb97a2ec443baabd72ab4427c26400f76cc84e9a176775",
}

SERIES_COLUMNS = ("series_prediction", "tail_bound", "defect_estimate",
                  "positive")


@pytest.mark.parametrize("name", sorted(PLANS))
def test_csv_bytes_match_the_recorded_digest(name, tmp_path):
    run_plan(parse_plan(json.dumps(PLANS[name])), tmp_path)
    path = tmp_path / f"{name}.csv"
    if name == "variance":
        rows = list(csv.reader(io.StringIO(path.read_text())))
        keep = [i for i, h in enumerate(rows[0]) if h not in SERIES_COLUMNS]
        data = "\n".join(",".join(r[i] for i in keep) for r in rows).encode()
    else:
        data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]

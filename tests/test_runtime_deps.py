"""The runtime needs numpy only: no triosplit code path imports scipy."""

import os
import subprocess
import sys
from pathlib import Path

import triosplit

SRC = str(Path(triosplit.__file__).resolve().parents[1])

# Runs in a fresh interpreter. A None entry in sys.modules makes every
# ``import scipy`` (and ``import scipy.<sub>``) raise ImportError.
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None

import importlib, pkgutil
import numpy as np
import triosplit
for info in pkgutil.iter_modules(triosplit.__path__):
    importlib.import_module("triosplit." + info.name)

from triosplit import cs, matcomp
from triosplit.cli import main
from triosplit.linalg import ObservationSet
from triosplit.splitting import StoppingRule

assert main(["diagnose", "--L", "1", "--l", "0", "--beta", "1"]) == 0

rng = np.random.default_rng(31)
A = rng.standard_normal((20, 60))
x = np.zeros(60)
x[[3, 17, 42]] = (1.0, -2.0, 0.5)
sensing = cs.SensingInstance(A, A @ x, x_true=x)
M = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 20))
rows, cols = np.nonzero(rng.random((20, 20)) < 0.7)
completion = matcomp.CompletionInstance(ObservationSet(rows, cols, M[rows, cols], (20, 20)),
                                        (20, 20), 2, 0.0)
rule = StoppingRule(max_iter=50)
solved = [
    cs.dys_l12(sensing, rule=rule),
    cs.dca_l12(sensing, inner_rule=rule),
    cs.admm_lasso(sensing, rule=rule),
    matcomp.dys_complete(completion, rule=rule),
    matcomp.drs_complete(completion, rule=rule),
    matcomp.svp_complete(completion, rule=rule),
    matcomp.svt_complete(completion, rule=rule),
]

assert sys.modules["scipy"] is None
assert not [name for name in sys.modules if name.startswith("scipy.")]
print("ok", len(solved))
"""


def test_runs_without_scipy():
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok 7"

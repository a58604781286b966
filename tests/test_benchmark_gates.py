"""The benchmark's traced runs on the workloads perfbench's own tests skip.

A traced run reports ``correct: false`` when a span its workload requires
stays empty (dense-oracle: ``exchange.arrow``, ``exchange.add_set``,
``cascade.concentration_probe``; closed-form-large: ``model.is_ris``) or when
tracing changes a move log.  ``perfbench/test_perfbench.py`` traces
exact-small only.
"""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "run.py")


@pytest.mark.parametrize("workload", ["dense-oracle", "closed-form-large"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0 and result["correct"], proc.stdout[-2000:]

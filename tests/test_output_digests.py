"""Byte identity of CLI output on the benchmark's request pools.

Each pool of ``perfbench/workloads.py`` is built for seeds 1 and 2, its
model files are written under a temporary directory, and every request runs
through ``pinkey.cli.main`` in pool order.  The SHA-256 of each request's
exit code and stdout, fed in that order, must match the pinned digest, so
any change to any output, structured or exit code, shows here.  The
workloads module is loaded from its file and writes no bytecode.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from pinkey.cli import main

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

DIGESTS = {
    (1, "analyze"): "3e75e5df7be01808",
    (1, "span"): "77a7964bbe081221",
    (1, "wide"): "0895658614b2f6c1",
    (1, "desk"): "43c6a035a7dd540d",
    (2, "analyze"): "b5bf05d23415c11c",
    (2, "span"): "162bd3dc8b8ba08e",
    (2, "wide"): "a06d01c073b8b106",
    (2, "desk"): "ff9a0c639d809d8c",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


@pytest.mark.parametrize("seed, workload", sorted(DIGESTS))
def test_pool_output_digest(workloads, tmp_path, seed, workload):
    pool = workloads.build(workload, seed)
    paths = pool.write(tmp_path)
    digest = hashlib.sha256()
    for request in pool.requests:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(request.argv(paths[request.model]))
        digest.update(f"{code}\n{out.getvalue()}".encode())
    assert digest.hexdigest()[:16] == DIGESTS[(seed, workload)]

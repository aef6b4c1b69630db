"""The forked helper that computes half B of the scattered Fourier products.

Every check runs in a fresh interpreter at one BLAS thread, where LSQR
starts a helper when the process may use two CPUs.  Products and models
must have the same bytes with and without the helper, and no helper may
outlive the solve that started it, however the solve ends.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from anovafourier._kernels import _NODES

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="the helper needs fork and two CPUs")

#: a small scattered system, its operator ``op`` and random vectors c, y;
#: ``pin(n)`` restricts the process to n of its CPUs
PRELUDE = """
import json, os, signal, sys
import numpy as np
from anovafourier.anova import term_family_ds
from anovafourier.index_sets import grouped
from anovafourier.method import build_search_sets
from anovafourier.operator import BlockFourierOperator, lsqr, uniform_nodes

CPUS = sorted(os.sched_getaffinity(0))
def pin(n):
    os.sched_setaffinity(0, CPUS[:n])

def system(m):
    g = grouped(term_family_ds(4, 2),
                build_search_sets(4, 2, {"type": "full_grid", "N": [8, 4]}))
    op = BlockFourierOperator(uniform_nodes(4, m, seed=3), g)
    rng = np.random.default_rng(m)
    c = rng.standard_normal(len(g)) + 1j * rng.standard_normal(len(g))
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return op, c, y
"""


def run(script, threads="1", *args) -> str:
    """The output of ``script`` after the prelude, at ``threads`` BLAS threads."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(script), *args],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def alive(pid) -> bool:
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.parametrize("m", [_NODES - 5, 2 * _NODES, 3 * _NODES - 7, 9 * _NODES + 1],
                         ids=["1-chunk", "2-chunks", "3-chunks", "10-chunks"])
def test_products_identical_with_and_without_helper(m):
    """F c and F* y have the same bytes when a helper computes half B and
    when one CPU leaves the process to compute both halves."""
    out = run(f"""
        op, c, y = system({m})
        got = {{}}
        for cpus in (2, 1):
            pin(cpus)
            with op.helped():
                got[cpus] = (op.forward(c).tobytes(), op.adjoint(y).tobytes(),
                             op._helper is not None)
        assert got[1][:2] == got[2][:2]
        print(json.dumps([got[2][2], got[1][2]]))
    """)
    assert json.loads(out) == [m > _NODES, False]


#: detect + approximate on 3 chunks, pinned to argv[1] CPUs; prints the
#: model digests and whether a helper started (it imports multiprocessing)
PIPELINE = """
from anovafourier import DetectionConfig, approximate, detect
from anovafourier.bench import testfun_value
pin(int(sys.argv[1]))
cfg = DetectionConfig(d=9, d_s=2, search={"type": "full_grid", "N": [8, 4]},
                      thresholds=[0.01, 0.01],
                      sampling={"kind": "scattered", "count": 5000, "seed": 2})
res = detect(cfg, testfun_value)
sets = build_search_sets(9, 2, {"type": "full_grid", "N": [16, 4]}, family=res.active)
model = approximate(res.active, sets, testfun_value, cfg.sampling)
print(json.dumps([res.pilot.digest(), model.digest(), "multiprocessing" in sys.modules]))
"""


def test_model_identical_across_cpus_and_blas_threads():
    one_cpu = json.loads(run(PIPELINE, "1", "1"))
    two_cpus = json.loads(run(PIPELINE, "1", "2"))
    two_blas = json.loads(run(PIPELINE, "2", "2"))
    assert (one_cpu[2], two_cpus[2], two_blas[2]) == (False, True, False)
    assert one_cpu[:2] == two_cpus[:2] == two_blas[:2]


#: LSQR whose operator records each product's calls and the helper's pid;
#: the products must run in this process.  ``END`` says how the solve ends:
#: it returns, the third forward raises before its halves start ("raise")
#: or while the helper computes half B ("raise-busy"), or it SIGKILLs
#: itself there ("kill")
SOLVE = """
import multiprocessing
from anovafourier import _kernels
op, _, y = system(3 * 2048)
parent, calls, pids = os.getpid(), {"forward": 0, "adjoint": 0}, []
def counted(name):
    orig = getattr(BlockFourierOperator, name)
    def product(self, v):
        assert os.getpid() == parent, "a product ran in the helper"
        calls[name] += 1
        pids.extend(p.pid for p in multiprocessing.active_children())
        if name == "forward" and calls[name] == 3 and END == "raise":
            raise KeyError("product failed")
        return orig(self, v)
    setattr(BlockFourierOperator, name, product)
counted("forward")
counted("adjoint")
kernel = _kernels.fourier_forward
def half_a(*args, **kwargs):
    if os.getpid() == parent and calls["forward"] == 3:
        if END == "kill":
            print(pids[0], flush=True)
            os.kill(parent, signal.SIGKILL)
        if END == "raise-busy":
            raise KeyError("product failed")
    return kernel(*args, **kwargs)
_kernels.fourier_forward = half_a
try:
    its = lsqr(op, y, atol=0.0, btol=0.0, max_iter=6).iterations
except KeyError:
    its = None
print(json.dumps({"pids": sorted(set(pids)), "calls": calls, "iterations": its,
                  "left": [p.pid for p in multiprocessing.active_children()]}))
"""


@pytest.mark.parametrize("end", ["return", "raise", "raise-busy"])
def test_no_helper_left_after_lsqr(end):
    """One helper serves a whole solve and is gone when lsqr returns or a
    product raises; LSQR still makes it+1 calls to each product."""
    out = json.loads(run(f"END = {end!r}\n" + SOLVE))
    assert len(out["pids"]) == 1 and out["left"] == []
    assert not alive(out["pids"][0])
    if end == "return":
        assert out["calls"] == {"forward": 7, "adjoint": 7} and out["iterations"] == 6
    else:
        assert out["iterations"] is None


def test_no_helper_left_after_the_solver_is_killed():
    """A SIGKILLed solving process leaves no helper: it sees its pipe end."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    script = PRELUDE + "END = 'kill'\n" + SOLVE
    with subprocess.Popen([sys.executable, "-c", script], env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        pid = int(proc.stdout.readline())
        assert proc.wait(timeout=60) == -signal.SIGKILL
        deadline = time.monotonic() + 5
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not alive(pid)


#: LSQR on 3 chunks where a fork is unsafe, not allowed or fails: beside a
#: second thread, in a daemonic worker process, or with no process to
#: spare; prints the iterations and the child processes seen in the solve
UNSAFE = """
import multiprocessing, queue, threading
def solve(out):
    op, _, y = system(3 * 2048)
    rep = lsqr(op, y, atol=0.0, btol=0.0, max_iter=3)
    out.put((rep.iterations, len(multiprocessing.active_children())))
if WHERE == "no-fork":
    def fork():
        raise BlockingIOError("no process to spare")
    os.fork = fork
    out = queue.Queue()
    solve(out)
elif WHERE == "thread":
    out, stop = queue.Queue(), threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    solve(out)
    stop.set()
    other.join(60)
else:
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    worker = ctx.Process(target=solve, args=(out,), daemon=True)
    worker.start()
print(json.dumps(out.get(timeout=60)))
if WHERE == "daemon":
    worker.join(60)
"""


@pytest.mark.parametrize("where", ["thread", "daemon", "no-fork"])
def test_no_helper_where_a_fork_is_unsafe_or_fails(where):
    """Beside a second thread, in a daemonic multiprocessing worker (which
    may not start a process), and when the fork fails, LSQR solves
    without a helper."""
    assert json.loads(run(f"WHERE = {where!r}\n" + UNSAFE)) == [3, 0]

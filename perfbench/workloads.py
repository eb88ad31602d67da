"""The three benchmark workloads: seeded inputs, the timed call, the oracle.

Every input is a pure function of (seed, call index): call i draws from
numpy.random.default_rng([seed, i]).  Inputs are materialised just before
their call, outside the timed region, so that memory use does not grow with
the number of calls.

The oracle is an eigendecomposition of the input as given: a real eigh on
real input, a complex eigh only on complex input.  Errors are reported in the
norm of the bound the engine returns: the absolute 2-norm error when
unshifted; for the shift method the error divided by e^c ||v||, because a
relative bound certifies ||exp(A)||_2 <= e^c.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

import measure


def no_span(name: str):
    return nullcontext()


@dataclass
class Call:
    """One call's input; A is None when the workload shares one operator."""

    index: int
    n: int
    A: np.ndarray | None = None
    v: np.ndarray | None = None
    bounds: tuple[float, float] | None = None


def lap1d(d: int) -> np.ndarray:
    A = np.zeros((d, d))
    idx = np.arange(d)
    A[idx, idx] = -2.0
    A[idx[:-1], idx[:-1] + 1] = 1.0
    A[idx[:-1] + 1, idx[:-1]] = 1.0
    return A


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x)


class Workload:
    """Base: subclasses set name, mode, orders, d and rhs, and draw inputs."""

    name = ""
    mode = ""
    orders: tuple[int, ...] = ()
    d = 0
    rhs = 0  # right-hand-side columns per pole pair in the engine's dense solve
    shift = None

    def __init__(self, seed: int):
        self.seed = seed
        self.pf = None

    def order(self, i: int) -> int:
        return self.orders[i % len(self.orders)]

    def draw(self, i: int) -> Call:
        raise NotImplementedError

    def matrix(self, call: Call) -> np.ndarray:
        return call.A

    # -- the program under test ------------------------------------------------

    def prepare(self, pf, span=no_span) -> None:
        """Everything a user builds once before the first call (counted in setup_s)."""
        self.pf = pf
        self.opts = {
            n: pf.ExpOptions(n=n, mode=self.mode, shift=self.shift) for n in self.orders
        }

    def construct(self, call: Call, span=no_span):
        """A new validated operator for the call's matrix."""
        with span("linalg.HermitianMatrix"):
            return self.pf.HermitianMatrix(self.matrix(call))

    def operator(self, call: Call, span=no_span):
        """The operator a call evaluates: built per call unless the workload shares one."""
        return self.construct(call, span)

    def evaluate(self, H, call: Call, opts):
        raise NotImplementedError

    def run(self, call: Call, opts=None, span=no_span):
        """The timed call: what a user does per input, from array to result."""
        opts = opts if opts is not None else self.opts[call.n]
        H = self.operator(call, span)
        with span(f"engine.matexp_{self.mode}"):
            return self.evaluate(H, call, opts)

    def with_threads(self, n: int, threads: int):
        return dataclasses.replace(self.opts[n], threads=threads)

    def serial(self, n: int):
        return dataclasses.replace(self.opts[n], parallel=False)

    def pair_solve(self, H, call: Call, span=no_span):
        """One pole pair through the public linalg solve, outside the pool."""
        theta = self.pf.default_table(call.n).thetas_f8()[0]
        if self.mode == "full":
            with span("linalg.shifted_inverse"):
                return self.pf.shifted_inverse(H, theta)
        with span("linalg.shifted_solve"):
            return self.pf.shifted_solve(H, theta, call.v)

    def interval_radius(self, H, call: Call) -> float:
        """Radius rho of the interval whose bound the engine evaluates."""
        return self.pf.gershgorin_bounds(H).rho()

    # -- oracle and baselines ----------------------------------------------------

    def decompose(self, call: Call, span=no_span):
        with span("oracle.eigh"):
            return np.linalg.eigh(self.matrix(call))

    def eigen(self, call: Call, span=no_span):
        """Eigendecomposition the oracle uses for this call."""
        return self.decompose(call, span)

    def reference(self, call: Call, span=no_span) -> np.ndarray:
        """exp(A), or exp(A) v, from the eigendecomposition."""
        w, U = self.eigen(call, span)
        with span("oracle.apply"):
            if call.v is None:
                return (U * np.exp(w)) @ U.conj().T
            return U @ (np.exp(w) * (U.conj().T @ call.v))

    def error(self, call: Call, res, span=no_span) -> float:
        """Error of res.value in the norm of the bound the engine reports."""
        diff = res.value - self.reference(call, span)
        if call.v is None:
            err = float(np.linalg.norm(diff, 2))
        else:
            err = float(np.linalg.norm(diff) / np.linalg.norm(call.v))
        if res.c_applied is not None:
            err /= math.exp(res.c_applied)
        return err

    def baseline_expm_multiply(self, call: Call, span=no_span) -> np.ndarray:
        A = scipy.sparse.csr_array(self.matrix(call))
        B = np.eye(self.d) if call.v is None else call.v
        with span("oracle.expm_multiply"):
            return expm_multiply(A, B)

    def envelope(self, n: int) -> float:
        """M1 = 2^-n in the bound's norm: every correct call stays below it."""
        return math.ldexp(1.0, -n)

    # -- computed work per call, averaged over one cycle of orders -------------

    def per_call(self, f) -> float:
        return sum(f(n) for n in self.orders) / len(self.orders)

    def pairs(self) -> float:
        return self.per_call(lambda n: n // 2)

    def flops(self) -> float:
        return self.per_call(lambda n: measure.call_flops(self.d, n, self.rhs))

    def bytes(self) -> float:
        return self.per_call(lambda n: measure.call_bytes(self.d, n, self.rhs))


class FullLap1d(Workload):
    """exp(tL) for the 1-D Laplacian, d=300, n=16; each call its own t in [0.5, 1]."""

    name = "full-lap1d"
    mode = "full"
    orders = (16,)
    d = 300
    rhs = 300

    def __init__(self, seed: int):
        super().__init__(seed)
        self.L = lap1d(self.d)

    def draw(self, i: int) -> Call:
        t = np.random.default_rng([self.seed, i]).uniform(0.5, 1.0)
        return Call(i, self.order(i), A=t * self.L)

    def evaluate(self, H, call, opts):
        return self.pf.matexp_full(H, opts)


class ActionStiffLap2d(Workload):
    """exp(A)v for one stiff 2-D Laplacian (20x20 grid, x125, rho=1000), n=20, fresh v per call."""

    name = "action-stiff-lap2d"
    mode = "action"
    orders = (20,)
    m = 20
    scale = 125.0
    d = m * m
    rhs = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        B = lap1d(self.m)
        I = np.eye(self.m)
        self.A = self.scale * (np.kron(B, I) + np.kron(I, B))
        self._eig = None

    def draw(self, i: int) -> Call:
        v = np.random.default_rng([self.seed, i]).standard_normal(self.d)
        return Call(i, self.order(i), v=_unit(v))

    def matrix(self, call):
        return self.A

    def prepare(self, pf, span=no_span):
        super().prepare(pf, span)
        self.H = self.construct(None, span)

    def operator(self, call, span=no_span):
        return self.H

    def evaluate(self, H, call, opts):
        return self.pf.matexp_action(H, call.v, opts)

    def eigen(self, call, span=no_span):
        if self._eig is None:  # A is shared: one eigh serves every call
            self._eig = self.decompose(call, span)
        return self._eig


class BatchSmallComplex(Workload):
    """exp(A)v, shift='auto', a new complex Hermitian d=64 per call, n cycling 16/24/32."""

    name = "batch-small-complex"
    mode = "action"
    orders = (16, 24, 32)
    d = 64
    rhs = 2
    shift = "auto"
    spectrum = (-4.0, 2.0)

    def draw(self, i: int) -> Call:
        rng = np.random.default_rng([self.seed, i])
        lam = rng.uniform(*self.spectrum, self.d)
        Z = rng.standard_normal((self.d, self.d)) + 1j * rng.standard_normal((self.d, self.d))
        Q, _ = np.linalg.qr(Z)
        A = (Q * lam) @ Q.conj().T
        A = (A + A.conj().T) / 2.0
        v = _unit(rng.standard_normal(self.d) + 1j * rng.standard_normal(self.d))
        return Call(i, self.order(i), A=A, v=v, bounds=(float(lam.min()), float(lam.max())))

    def construct(self, call, span=no_span):
        lo, hi = call.bounds
        with span("linalg.HermitianMatrix"):
            return self.pf.HermitianMatrix(
                call.A, bounds=self.pf.SpectralBounds(lo, hi, exact=True)
            )

    def evaluate(self, H, call, opts):
        return self.pf.matexp_shifted(H, opts, v=call.v)

    def interval_radius(self, H, call):
        lo, hi = call.bounds
        return hi - lo  # shift c = hi moves the interval to [lo - hi, 0]


WORKLOADS = {w.name: w for w in (FullLap1d, ActionStiffLap2d, BatchSmallComplex)}

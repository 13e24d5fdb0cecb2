"""Reference engine built from plain Python loops.

Mirrors the sparse engine's arithmetic order exactly: accumulation over
stored in-edges in ascending source order matches CSR matvec, so per-period
avalanche sizes must agree bitwise for the same seed. Only the operator
matrix, exposure arrays, and parameter values are shared with the package;
the update recursion and the relaxation rule are reimplemented here.
"""

from __future__ import annotations

import numpy as np


class ScalarLoopEngine:
    def __init__(self, operator, exposure, params, sigma_D=1.0, seed=0):
        n = operator.n
        At = operator.matrix.T.tocsr()
        At.sort_indices()
        # in_edges[i] lists (source j, weight A[j, i]) in ascending j,
        # including explicitly stored zeros, to match sparse accumulation.
        self.in_edges = []
        for i in range(n):
            lo, hi = At.indptr[i], At.indptr[i + 1]
            self.in_edges.append(
                [(int(At.indices[k]), float(At.data[k])) for k in range(lo, hi)]
            )
        self.n = n
        self.I = [float(v) for v in exposure.I]
        self.D = [float(v) for v in exposure.D]
        self.C = [float(v) for v in exposure.C]
        self.params = params
        self.sigma_D = float(sigma_D)
        self.theta = float(params.theta)
        self.max_rounds = (
            params.max_relax_rounds if params.max_relax_rounds is not None else 10 * n
        )
        self.s = [0.0] * n
        self.rng = np.random.default_rng(seed)

    def _matvec(self, vec):
        out = [0.0] * self.n
        for i in range(self.n):
            acc = 0.0
            for j, a in self.in_edges[i]:
                acc = acc + a * vec[j]
            out[i] = acc
        return out

    def _relax(self):
        p = self.params
        events = 0
        toppled = set()
        rounds = 0
        while True:
            over = [self.s[i] >= self.theta for i in range(self.n)]
            n_over = sum(over)
            if n_over == 0:
                return events, toppled, rounds
            if rounds >= self.max_rounds:
                raise RuntimeError("relaxation budget exhausted")
            excess = [
                self.s[i] - p.theta_reset if over[i] else 0.0 for i in range(self.n)
            ]
            for i in range(self.n):
                if over[i]:
                    self.s[i] = p.theta_reset
            send = [p.redistribution_fraction * e for e in excess]
            inc = self._matvec(send)
            for i in range(self.n):
                self.s[i] = self.s[i] + inc[i]
            events += n_over
            toppled.update(i for i in range(self.n) if over[i])
            rounds += 1

    def step(self, B_bar, sigma_B):
        p = self.params
        xi = float(self.rng.normal(0.0, sigma_B))
        B_t = max(0.0, B_bar + xi)
        hall = []
        for i in range(self.n):
            denom = (self.D[i] / self.sigma_D) * self.C[i] + p.epsilon
            hall.append(B_t * self.I[i] / denom)
        shocks = [abs(float(v)) for v in self.rng.normal(0.0, p.sigma_x, self.n)]
        prop = self._matvec(self.s)
        for i in range(self.n):
            v = (1.0 - p.delta) * self.s[i] + p.alpha * shocks[i] + p.beta * prop[i] + p.gamma * hall[i]
            if v < 0.0:
                v = 0.0
            self.s[i] = v
        events, toppled, _ = self._relax()
        return len(toppled) if p.count_unique else events

    def run(self, B_bar, sigma_B, periods):
        return [self.step(B_bar, sigma_B) for _ in range(periods)]

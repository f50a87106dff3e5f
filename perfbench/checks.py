"""Judge every recorded operation against the independent oracle.

``Checker.check(spec, record)`` returns a list of problems (empty when the
operation is correct).  Oracle answers are computed once per input file
and cached; all numeric comparisons are at 1e-9 relative.  Besides the
oracle, the toolkit's own cross-checks are asserted as invariants: the
certificate ``lambda2 <= geometric_bound``, resistance route discrepancy
<= 1e-9, immersion comparison ``lhs <= rhs``, and a Möbius centroid <= 1e-7
or the expected refusal.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

import oracle
from oracle import REL_TOL, close

CENTROID_TOL = 1e-7
PACKING_TOL = 1e-8
UNIT_TOL = 1e-10


class Checker:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self._graph = lru_cache(maxsize=None)(self._load)
        self._dtn = lru_cache(maxsize=None)(self._dtn_matrix)
        self._eigs = lru_cache(maxsize=None)(self._eigenvalues)
        self._lambda2 = lru_cache(maxsize=None)(self._lambda2_of)
        self._res = lru_cache(maxsize=None)(self._resistance)

    # -- cached oracle answers, one per input file --------------------------
    def _load(self, fname):
        return oracle.load_graph(os.path.join(self.workdir, fname))

    def _dtn_matrix(self, fname):
        return oracle.dtn(*self._graph(fname))

    def _eigenvalues(self, fname):
        return oracle.eigenvalues(self._dtn(fname))

    def _lambda2_of(self, fname):
        return float(oracle.eigenvalues(self._dtn(fname), count=2)[1])

    def _resistance(self, fname):
        n, edges, _ = self._graph(fname)
        return oracle.resistance_matrix(n, edges)

    # -- per-kind checks ----------------------------------------------------
    def check(self, spec, rec) -> list[str]:
        refuse = spec.get("kind") == "mobius" and spec.get("expect_refusal")
        if rec["status"] == "error":
            return [f"raised {rec['error']}"]
        if rec["status"] == "refused":
            return []
        if refuse:
            return ["expected NormalizationFailure, got a result"]
        return getattr(self, "_check_" + spec["kind"].replace("-", "_"))(spec, rec["out"])

    def _check_lambda_k(self, spec, out):
        want = self._lambda2(spec["input"])
        return [] if close(out["value"], want) else [f"lambda_2 {out['value']!r} != {want!r}"]

    def _check_spectrum(self, spec, out):
        probs = []
        want = self._eigs(spec["input"])
        if not close(out["eigenvalues"], want):
            probs.append("eigenvalues differ from the oracle")
        if not out["residual"] <= REL_TOL:
            probs.append(f"eigenfunction residual {out['residual']:.3e}")
        return probs

    def _check_dtn(self, spec, out):
        S = self._dtn(spec["input"])
        want = S @ oracle.probe_matrix(S.shape[0], spec["probe_seed"])
        bnd = self._graph(spec["input"])[2]
        probs = [] if close(out["probe"], want) else ["DtN matrix differs from the oracle"]
        if out["boundary"] != sorted(bnd.tolist()):
            probs.append("DtN boundary order differs")
        return probs

    def _records(self, inputs, records):
        probs = []
        if len(records) != len(inputs):
            return [f"{len(records)} sweep records, expected {len(inputs)}"]
        for fname, r in zip(inputs, records):
            n, edges, bnd = self._graph(fname)
            lam = self._lambda2(fname)
            D = oracle.max_degree(n, edges)
            g = int(r["g"])
            if not (close(r["lambda2"], lam) and r["D"] == D
                    and r["boundary_size"] == len(bnd)
                    and close(r["product"], lam * len(bnd))
                    and close(r["product_over_g"], lam * len(bnd) / g)):
                probs.append(f"sweep record g={g} differs from the oracle")
        return probs

    def _check_sweep(self, spec, out):
        return self._records(spec["inputs"], out["records"])

    def _certificate(self, fname, c):
        n, edges, bnd = self._graph(fname)
        lam = self._lambda2(fname)
        D = oracle.max_degree(n, edges)
        probs = []
        if not close(c["lambda2"], lam):
            probs.append(f"lambda2 {c['lambda2']!r} != oracle {lam!r}")
        if not c["lambda2"] <= c["geometric_bound"] * (1 + REL_TOL):
            probs.append("certificate lambda2 exceeds geometric_bound")
        if not (c["boundary_size"] == len(bnd) and c["max_degree"] == D
                and close(c["degree_bound"], 8.0 * D / len(bnd))
                and close(c["product"], c["lambda2"] * len(bnd))):
            probs.append("certificate sizes or degree bound differ")
        if not c["packing_residual"] <= PACKING_TOL:
            probs.append(f"packing residual {c['packing_residual']:.3e}")
        if not c["centroid_norm"] <= CENTROID_TOL:
            probs.append(f"centroid norm {c['centroid_norm']:.3e}")
        return probs

    def _check_certify(self, spec, out):
        return self._certificate(spec["input"], out)

    def _check_mobius(self, spec, out):
        if out["count"] == spec["size"] and out["centroid"] <= CENTROID_TOL \
                and out["unit_err"] <= UNIT_TOL:
            return []
        return [f"Möbius output centroid {out['centroid']:.3e}, unit error "
                f"{out['unit_err']:.3e}"]

    def _check_rgf(self, spec, out):
        n, edges, _ = self._graph(spec["input"])
        R = self._res(spec["input"])
        u, v = out["argmin"]
        floor = float(R[np.triu_indices(n, 1)].min())
        probs = []
        if out["genus"] != spec["genus"]:
            probs.append(f"genus {out['genus']} != {spec['genus']}")
        if out["pairs_sampled"] != min(300, n * (n - 1) // 2):
            probs.append(f"{out['pairs_sampled']} pairs sampled")
        if not close(out["min_resistance"], R[u, v]):
            probs.append("min_resistance differs from the oracle at its argmin")
        if out["min_resistance"] < floor * (1 - REL_TOL):
            probs.append("min_resistance below the smallest resistance of any pair")
        if not close(out["empirical_c"], out["min_resistance"] * (out["genus"] + 1)):
            probs.append("empirical_c != min_resistance * (genus + 1)")
        return probs

    def _check_effres(self, spec, out):
        want = self._res(spec["input"])[spec["u"], spec["v"]]
        probs = []
        if not (close(out["r_steklov"], want) and close(out["r_pinv"], want)):
            probs.append(f"resistance {out['r_steklov']!r} != oracle {want!r}")
        if not out["discrepancy"] <= REL_TOL * max(1.0, out["r_pinv"]):
            probs.append(f"route discrepancy {out['discrepancy']:.3e}")
        return probs

    def _check_immersion(self, spec, out):
        if (out["bad_steps"] == 0 and out["xi"] == out["xi_re"]
                and out["ell"] == out["ell_re"] and out["paths"] == out["source_edges"]):
            return []
        return [f"immersion witness invalid: {out}"]

    def _check_chain(self, spec, out):
        lam_src = self._lambda2(spec["input"])
        lam_ref = self._lambda2(spec["refined"])
        probs = []
        if not (close(out["lambda2_source"], lam_src)
                and close(out["lambda2_refined"], lam_ref)):
            probs.append("chain eigenvalues differ from the oracle")
        if not (out["comparison_holds"]
                and lam_src <= out["best_bound"] * (1 + REL_TOL)):
            probs.append("comparison lambda2(source) <= xi*ell*lambda2(host) fails")
        if not close(out["ratio"], out["lhs"] / out["rhs"]):
            probs.append("chain ratio != lhs / rhs")
        return probs

    # -- CLI outputs, compared numerically ----------------------------------
    def _cli(self, spec, out, inner):
        if out["rc"] != 0:
            return [f"exit code {out['rc']}: {out['stderr']}"]
        return inner(spec, out["parsed"])

    def _check_cli_spectrum(self, spec, out):
        return self._cli(spec, out, self._check_lambda_k)

    def _check_cli_certify(self, spec, out):
        return self._cli(spec, out, lambda s, p: self._certificate(s["input"], p))

    def _check_cli_sweep(self, spec, out):
        return self._cli(spec, out, lambda s, p: self._records(s["inputs"], p["records"]))

    def _check_cli_immerse(self, spec, out):
        def inner(s, p):
            lam = self._lambda2(s["input"])
            probs = [] if close(p["lambda2"], lam) else ["immerse lambda2 != oracle"]
            if not p["lambda2"] <= p["bound"] * (1 + REL_TOL):
                probs.append("comparison lhs <= rhs fails")
            return probs
        return self._cli(spec, out, inner)

    def _check_cli_subdivide(self, spec, out):
        def inner(s, p):
            n0, e0, _ = self._graph(s["input"])
            n, e = n0, len(e0)
            for _ in range(p["level"]):  # V' = V + E, E' = 4E on closed triangulations
                n, e = n + e, 4 * e
            ok = (p["n"] == n and p["edges"] == e and p["boundary"] == n
                  and p["rotation_rows"] == n and p["canonical"] and p["level"] == 2
                  and math.isclose(p["growth"], n / (4 ** 2 * n0), rel_tol=REL_TOL))
            return [] if ok else [f"subdivision output wrong: {p}"]
        return self._cli(spec, out, inner)

"""Benchmark workloads: their inputs, one timed item, and the correctness gate.

Every workload is a closed loop with one caller.  Its inputs come in
passes: pass 0 is the input set described in README.md, and pass k >= 1
repeats the same shape with inputs drawn from split k of the run seed, so
a run that outlasts one pass never repeats an input.

The gate compares each pass-0 item of the default seed with the outputs
pinned in reference.json, and checks the certification contract on every
item of every seed.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

from taurank import artheory, presentations
from taurank.fields import QQ, PrimeField, SeedStream
from taurank.fixtures import FIXTURE_NAMES, load_fixture
from taurank.polyrank import OracleBudgetError, poly_rank

DEFAULT_SEED = 42
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def stratified(items):
    """Reorder `items` in bit-reversed index order, so that every prefix
    samples the whole list evenly; a run cut at its deadline then sees
    the same mix of cheap and expensive items as a full pass."""
    bits = max(1, (len(items) - 1).bit_length())
    order = sorted(range(len(items)), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return [items[i] for i in order]


def pass_seed(seed, k):
    return seed if k == 0 else SeedStream(seed).split(k).seed


# layers every full pass must reach; a zero count there means a wrapper
# missed a call site
SCAN_LAYERS = (
    "morphism_from_coeffs", "sample_coeffs", "cover_upper_bound", "combine_complexes",
    "generic_rank", "rank", "realize", "sample", "build_algebra", "parse_quiver_file",
)
MODULE_LAYERS = (
    "min_presentation", "projective_cover", "kernel", "cokernel", "hom_system", "tau",
    "nakayama_complex", "is_tau_regular", "stable_hom_dim_inj", "rref", "matmul",
    "generic_rank", "realize", "rank", "morphism_from_coeffs", "sample_coeffs",
    "cover_upper_bound", "sample", "build_algebra", "parse_quiver_file",
)


@dataclass(frozen=True)
class ScanWorkload:
    """`additivity_scan` on every pair (P1, P0) with multiplicities in
    {0,1,2}^n over the given fixtures; one scan is one item."""

    name: str
    fixtures: tuple
    t_max: int
    trials: int
    oracle_max_params: int
    prime: int | None = None
    required_layers: tuple = SCAN_LAYERS

    @property
    def field(self):
        return QQ if self.prime is None else PrimeField(self.prime)

    def pass_items(self, field, seed, k):
        scan_seed = pass_seed(seed, k)
        pairs = []
        for fx in self.fixtures:
            alg = load_fixture(fx)
            choices = list(itertools.product(range(3), repeat=alg.quiver.n))
            pairs += [(fx, alg, m1, m0) for m1 in choices for m0 in choices]
        return [(fx, alg, m1, m0, scan_seed, field) for fx, alg, m1, m0 in stratified(pairs)]

    def run(self, item):
        _, alg, m1, m0, scan_seed, field = item
        return presentations.additivity_scan(
            alg,
            presentations.ProjDecomp(m1),
            presentations.ProjDecomp(m0),
            t_max=self.t_max,
            trials=self.trials,
            seed=scan_seed,
            field=field,
            oracle_max_params=self.oracle_max_params,
        )

    @staticmethod
    def key(item):
        fx, _, m1, m0 = item[:4]
        return f"{fx}|{','.join(map(str, m1))}|{','.join(map(str, m0))}"

    def summarize(self, item, report):
        return {"fixture": item[0], **report.to_json()}

    @staticmethod
    def reference_entry(summary):
        return [summary["r"], summary["certified"], summary["violations"]]

    @staticmethod
    def certified_counts(summary):
        return sum(summary["certified"]), len(summary["certified"])

    def expected_calls(self, s):
        """Exact span counts of one scan whose every level was certified by
        the dimension bound, so that the oracle never ran; None for other
        scans."""
        if any(m != "dimension-bound" for m in s["methods"]):
            return None
        t, r = self.t_max, self.trials
        return {
            "generic_rank": t,
            "combine_complexes": t - 1,
            "morphism_from_coeffs": t * (r + 2) - 1,
            "realize": 4 * t - 2,
            "rank": load_fixture(s["fixture"]).quiver.n * (r * t + 4 * (t - 1)),
        }

    def check(self, s, ref, bounds):
        """Error strings for one scan summary; `bounds` memoizes the cover
        bound and the oracle value per (fixture, t * P1, t * P0)."""
        errors = []
        r = s["r"]
        if ref is not None:
            ref_r, ref_cert, ref_viol = ref
            if r != ref_r:
                errors.append(f"r {r} != reference {ref_r}")
            if s["violations"] != ref_viol:
                errors.append(f"violations {s['violations']} != reference {ref_viol}")
            if any(rc and not c for rc, c in zip(ref_cert, s["certified"])):
                errors.append(f"certified {s['certified']} lost a level of {ref_cert}")
        for t in range(2, len(r) + 1):
            if r[t - 1] < t * r[0]:
                errors.append(f"r({t}) = {r[t - 1]} < {t} * r(1)")
        expected = [t for t in range(2, len(r) + 1) if r[t - 1] > t * r[0]]
        if s["violations"] != expected:
            errors.append(f"violations {s['violations']} != {expected} from r")
        for t, (value, cert) in enumerate(zip(r, s["certified"]), start=1):
            key = (s["fixture"], tuple(t * x for x in s["p1"]), tuple(t * x for x in s["p0"]))
            bound = bounds.cover(key)
            if value > bound:
                errors.append(f"r({t}) = {value} above the cover bound {bound}")
            elif cert and value != bound:
                oracle = bounds.oracle(key)
                if oracle is not None and value != oracle:
                    errors.append(f"certified r({t}) = {value} != oracle {oracle}")
        return errors


class Bounds:
    """Memo of the upper side of Hom(P1, P0) per (fixture, P1, P0): the
    block-cover bound, and the symbolic oracle value where it fits the
    library's default budget (None where it does not)."""

    def __init__(self):
        self._cover = {}
        self._oracle = {}

    @staticmethod
    def _hom(key):
        fx, m1, m0 = key
        p1, p0 = presentations.ProjDecomp(m1), presentations.ProjDecomp(m0)
        return presentations.realize_pair(load_fixture(fx), p1, p0)

    def cover(self, key):
        if key not in self._cover:
            self._cover[key] = presentations.cover_upper_bound(self._hom(key))
        return self._cover[key]

    def oracle(self, key):
        if key not in self._oracle:
            self._oracle[key] = oracle_value(self._hom(key))
        return self._oracle[key]


def oracle_value(hs):
    try:
        return sum(poly_rank(pm) for pm in hs.generic_vertex_matrices().values())
    except OracleBudgetError:
        return None


@dataclass(frozen=True)
class ModuleSweep:
    """Seeded `random_module` draws, `per_fixture` on each bundled
    fixture; one item is `hierarchy_report(M, trials)` plus
    `ar_formula_check(M, next)`, where next is the following module drawn
    on the same fixture."""

    name: str
    per_fixture: int
    max_total_dim: int
    trials: int

    field = QQ
    required_layers = MODULE_LAYERS

    def pass_items(self, field, seed, k):
        rng = SeedStream(pass_seed(seed, k))
        mods = {}
        for fi, fx in enumerate(FIXTURE_NAMES):
            alg = load_fixture(fx)
            mods[fx] = [
                presentations.random_module(
                    alg, rng.split(1000 * fi + j), max_total_dim=self.max_total_dim
                )
                for j in range(self.per_fixture)
            ]
        n = self.per_fixture
        return [
            (fx, j, mods[fx][j], mods[fx][(j + 1) % n])
            for j in range(n)
            for fx in FIXTURE_NAMES
        ]

    def run(self, item):
        _, j, m, nxt = item
        report = artheory.hierarchy_report(m, trials=self.trials, seed=100 + j)
        return report, artheory.ar_formula_check(m, nxt)

    @staticmethod
    def key(item):
        return f"{item[0]}|{item[1]}"

    def summarize(self, item, result):
        """The report's JSON plus what the gate needs from the live
        objects: the module's dimension vector, the AR-formula result and
        the upper side of the verdict's Hom space."""
        report, ar = result
        v = report.verdict
        out = report.to_json()
        out["dims"] = list(item[2].dims)
        out["ar_formula"] = ar
        if v.witness is not None and v.certified and v.outcome != "certified-no":
            hs = v.witness.hom
            out["cover_bound"] = presentations.cover_upper_bound(hs)
            if out["cover_bound"] != v.generic_rank:
                out["oracle"] = oracle_value(hs)
        return out

    @staticmethod
    def reference_entry(s):
        v = s["verdict"]
        flags = [s[k] for k in (
            "projective", "pd_le_1", "rigid", "tau_rigid", "partial_tilting", "tau_regular"
        )]
        pd = s["proj_dim"]
        return [
            s["dims"], flags, [pd["kind"], pd["value"]], s["e"], s["E"], v["outcome"],
            v["generic_rank"], v["presentation_rank"], v["witness_rank"], v["certified"],
        ]

    @staticmethod
    def certified_counts(summary):
        return int(summary["verdict"]["certified"]), 1

    def expected_calls(self, s):
        return None

    def check(self, s, ref, bounds):
        errors = []
        v = s["verdict"]
        if ref is not None:
            got = self.reference_entry(s)
            for label, a, b in zip(
                ("dims", "flags", "pd", "e", "E", "outcome", "generic_rank",
                 "presentation_rank", "witness_rank"),
                got, ref,
            ):
                if a != b:
                    errors.append(f"{label} {a} != reference {b}")
            if ref[-1] and not v["certified"]:
                errors.append("verdict lost its certification")
        if not s["ar_formula"]:
            errors.append("AR formula failed")
        if v["witness_rank"] != v["generic_rank"]:
            errors.append(f"witness rank {v['witness_rank']} != value {v['generic_rank']}")
        if v["generic_rank"] < v["presentation_rank"]:
            errors.append("generic rank below the presentation rank")
        if v["outcome"] == "certified-no":
            if not v["witness_rank"] > v["presentation_rank"]:
                errors.append("certified-no witness does not beat the presentation")
        elif v["outcome"] == "certified-yes":
            if not v["certified"] or v["generic_rank"] != v["presentation_rank"]:
                errors.append("certified-yes without a certified, attained rank")
            elif v["generic_rank"] != s["cover_bound"] and s.get("oracle") not in (
                None, v["generic_rank"]
            ):
                errors.append(
                    f"certified value {v['generic_rank']} is neither the cover bound "
                    f"{s['cover_bound']} nor the oracle value {s.get('oracle')}"
                )
        elif v["outcome"] != "probable-yes" or v["certified"]:
            errors.append(f"unexpected verdict {v['outcome']} certified={v['certified']}")
        if s["e"] > s["E"]:
            errors.append("e(M) > E(M)")
        return errors


PRIME = 2147483647

WORKLOADS = {
    w.name: w
    for w in (
        ScanWorkload("hereditary-scan", ("ALG-K", "ALG-B0"), t_max=4, trials=2,
                     oracle_max_params=64),
        ScanWorkload("alg-a-scan", ("ALG-A",), t_max=2, trials=4, oracle_max_params=12,
                     required_layers=SCAN_LAYERS + ("poly_rank",)),
        ModuleSweep("module-sweep", per_fixture=100, max_total_dim=9, trials=2),
        ScanWorkload("hereditary-scan-fp", ("ALG-K", "ALG-B0"), t_max=4, trials=2,
                     oracle_max_params=64, prime=PRIME),
    )
}


def load_reference(name):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[name]

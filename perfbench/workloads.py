"""The benchmark's three workloads.

Each workload turns a seed into inputs once (``build``) and then yields the
items of one pass (``items``).  An item is a call into the package plus a
check of its result against the benchmark's own goldens
(``goldens.json``).  The package only ever sees the generated inputs.

* ``catalog``: ``reproduce.reproduce_entry`` for all eight catalog entries
  in a seeded order; exact counting on v <= 36 with up to 7308 blocks.
* ``affine-cli``: the README's file pipeline through ``cli.main`` on three
  affine constructions, plus ``gen affine 3 8`` and its PRP check; finite
  fields, multi-word bitsets at v = 64-512, and file formats.
* ``search``: resolution searches and PRP searches on point-relabelled,
  block-shuffled copies of the catalog masters and the K_4n embeddings.

Modules are looked up at call time (``reproduce.reproduce_entry``, not a
bound name), so a traced pass goes through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

cli = importlib.import_module("blockdesigns.cli")
core = importlib.import_module("blockdesigns.core")
generators = importlib.import_module("blockdesigns.generators")
reproduce = importlib.import_module("blockdesigns.reproduce")
resolution = importlib.import_module("blockdesigns.resolution")
catalog = importlib.import_module("blockdesigns.catalog")

# Node budget of each relabelled limit=1 search on the k = 3 masters; it
# runs out at every seed tried, so these searches are the unsolved share.
HARD_BUDGET = 250_000
# Budget of every other search; none of them comes near it.
SEARCH_BUDGET = 5_000_000
# Distinct relabellings of the search inputs; pass p uses set p % POOL.
POOL = 12
WORK_DIR = "perfbench/_work"


@dataclass(frozen=True)
class Outcome:
    ok: bool
    solved: bool | None = None  # None: the item is not a budgeted search
    detail: str = ""


@dataclass(frozen=True)
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    prepare: Callable[[], None] | None = None  # untimed, before the call


class BudgetExhausted:
    """Returned by a search that raised SearchBudgetExceeded: a documented
    outcome, counted as unsolved, not failed."""


def _mismatch(what: str, expected, observed) -> Outcome:
    return Outcome(False, detail=f"{what}: expected {expected!r}, observed {observed!r}")


# -- catalog --------------------------------------------------------------


def _check_entry(golden: dict, report) -> Outcome:
    v = golden["master"][0]
    expected = {
        "master parameters (v,b,r,k)": tuple(golden["master"]),
        "master pair coverage": {golden["lambda"]: math.comb(v, 2)},
        "constructed parameters (v,b,r,k)": tuple(golden["constructed"]),
        "triple coverage": {golden["mu"]: math.comb(v, 3)},
        "intersection profile": tuple(golden["profile"]),
        "profile pair total": math.comb(golden["constructed"][1], 2),
        "simple": True,
        "coverage formula": golden["mu"],
    }
    observed = {check.label: check.observed for check in report.checks}
    if set(observed) != set(expected):
        return _mismatch("check labels", sorted(expected), sorted(observed))
    for label, want in expected.items():
        if observed[label] != want:
            return _mismatch(label, want, observed[label])
    if not report.ok:
        return Outcome(False, detail="report not ok")
    return Outcome(True)


class CatalogWorkload:
    name = "catalog"

    def __init__(self, seed: int, goldens: dict):
        self.seed = seed
        self.goldens = goldens["catalog"]

    def build(self) -> None:
        pass

    def items(self, pass_index: int) -> list[Item]:
        order = sorted(self.goldens)
        random.Random(f"catalog:{self.seed}:{pass_index}").shuffle(order)
        return [
            Item(
                name,
                lambda name=name: reproduce.reproduce_entry(name),
                lambda report, golden=self.goldens[name]: _check_entry(golden, report),
            )
            for name in order
        ]

    def budgets(self) -> dict:
        return {}


# -- affine-cli -----------------------------------------------------------

# Each pipeline is a list of CLI argument strings; "{w}" is the work dir.
PIPELINES = {
    "AG(2,8)xtrivial(8,4)": [
        "gen affine 2 8 --out {w}/ag28.res",
        "prp {w}/ag28.res --alpha 4",
        "gen trivial 8 4 --out {w}/t84.design",
        "construct {w}/ag28.res {w}/t84.design --out {w}/ag28_t84.design",
        "verify {w}/ag28_t84.design --t 3 --expect-lambda 75 --expect-simple",
        "profile {w}/ag28_t84.design",
    ],
    "AG(3,4)xtrivial(4,2)": [
        "gen affine 3 4 --out {w}/ag34.res",
        "prp {w}/ag34.res --alpha 2",
        "gen trivial 4 2 --out {w}/t42.design",
        "construct {w}/ag34.res {w}/t42.design --out {w}/ag34_t42.design",
        "verify {w}/ag34_t42.design --t 3 --expect-lambda 15 --expect-simple",
        "profile {w}/ag34_t42.design",
    ],
    "AG(2,16)xAG(4,2)": [
        "gen affine 2 16 --out {w}/ag216.res",
        "prp {w}/ag216.res --alpha 8",
        "gen affine 4 2 --out {w}/ag42.res",
        "construct {w}/ag216.res {w}/ag42.res --out {w}/ag216_ag42.design",
        "verify {w}/ag216_ag42.design --t 2 --expect-lambda 127 --expect-simple",
        "profile {w}/ag216_ag42.design",
    ],
    "AG(3,8)": [
        "gen affine 3 8 --out {w}/ag38.res",
        "prp {w}/ag38.res --alpha 4",
    ],
}

EXIT_BUDGET = 3  # the CLI's documented exit code for an exhausted search budget


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_step(argv: list[str], golden: dict, result) -> Outcome:
    code, out, err = result
    is_prp = argv[0] == "prp"
    if is_prp and code == EXIT_BUDGET:
        return Outcome(True, solved=False, detail="prp budget exhausted (exit 3)")
    solved = True if is_prp else None
    if code != golden["code"]:
        return _mismatch("exit code", golden["code"], code)
    if out != golden["stdout"]:
        return _mismatch("stdout", golden["stdout"], out)
    if err != golden["stderr"]:
        return _mismatch("stderr", golden["stderr"], err)
    for path, digest in golden["files"].items():
        if not Path(path).is_file():
            return _mismatch(f"{path} sha256", digest, None)
        if _sha256(path) != digest:
            return _mismatch(f"{path} sha256", digest, _sha256(path))
    return Outcome(True, solved=solved)


def _remove_files(paths) -> None:
    for path in paths:
        Path(path).unlink(missing_ok=True)


class AffineCliWorkload:
    name = "affine-cli"

    def __init__(self, seed: int, goldens: dict):
        self.seed = seed
        self.goldens = goldens["affine-cli"]

    def build(self) -> None:
        Path(WORK_DIR).mkdir(parents=True, exist_ok=True)

    def items(self, pass_index: int) -> list[Item]:
        order = list(PIPELINES)
        random.Random(f"affine-cli:{self.seed}:{pass_index}").shuffle(order)
        items = []
        for pipeline in order:
            steps = [step.format(w=WORK_DIR) for step in PIPELINES[pipeline]]
            goldens = self.goldens[pipeline]
            written = [path for step in steps for path in goldens[step]["files"]]
            for index, step in enumerate(steps):
                items.append(
                    Item(
                        f"{pipeline}: {step}",
                        lambda argv=step.split(): run_cli(argv),
                        lambda result, argv=step.split(), golden=goldens[step]: (
                            _check_step(argv, golden, result)
                        ),
                        prepare=(lambda paths=written: _remove_files(paths))
                        if index == 0
                        else None,
                    )
                )
        return items

    def budgets(self) -> dict:
        return {"prp": resolution.DEFAULT_NODE_BUDGET}


# -- search ---------------------------------------------------------------


def relabel(design, res, rng: random.Random):
    """An isomorphic copy: points permuted, blocks shuffled, class order
    kept and block refs remapped (so PRP violation lists are unchanged)."""
    v = design.points.size
    perm = list(range(v))
    rng.shuffle(perm)
    order = list(range(len(design.blocks)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    blocks = tuple(
        tuple(sorted(perm[p] for p in design.blocks[old])) for old in order
    )
    copy = core.Design(points=core.PointSet(v), blocks=blocks, k=design.k)
    classes = tuple(
        resolution.ParallelClass(tuple(position[ref] for ref in cls.block_refs))
        for cls in res.classes
    )
    return copy, resolution.Resolution(copy, classes)


def _masters() -> dict[str, tuple]:
    """Catalog masters by their (v,k,lambda) name, plus the K_4n embeddings."""
    masters = {}
    for name in catalog.catalog_names():
        entry = catalog.catalog_entry(name)
        p = entry.master_params
        masters[f"({p.v},{p.k},{p.lam})"] = generators.cyclic_develop(entry.base)
    for n in (2, 3, 4):
        masters[f"sub{n}"] = generators.sub_factorization_embedding(n)
    return masters


HARD = ("(24,3,2)", "(30,3,2)")
HARD_COPIES = 2  # relabellings of each hard master per pass


def _search(design, limit: int, budget: int):
    try:
        return resolution.find_resolutions(design, limit=limit, node_budget=budget)
    except resolution.SearchBudgetExceeded:
        return BudgetExhausted()


def _search_verified(design, limit: int, budget: int):
    """The search plus verify_resolution on each result (package work)."""
    found = _search(design, limit, budget)
    if isinstance(found, BudgetExhausted):
        return found
    return found, [bool(resolution.verify_resolution(design, res)) for res in found]


def _content(res) -> tuple:
    blocks = res.design.blocks
    return tuple(sorted(tuple(sorted(blocks[i] for i in cls.block_refs)) for cls in res.classes))


def _check_count(expected: int, result) -> Outcome:
    if isinstance(result, BudgetExhausted):
        return Outcome(True, solved=False)
    if len(result) != expected:
        return _mismatch("resolutions found", expected, len(result))
    return Outcome(True, solved=True)


def _check_verified(expected: int, result) -> Outcome:
    """expected distinct resolutions, each passing verify_resolution."""
    if isinstance(result, BudgetExhausted):
        return Outcome(True, solved=False)
    found, verdicts = result
    if len(found) != expected:
        return _mismatch("resolutions found", expected, len(found))
    if not all(verdicts):
        return Outcome(False, detail=f"{verdicts.count(False)} resolutions fail verification")
    if len({_content(res) for res in found}) != len(found):
        return Outcome(False, detail="resolutions are not distinct")
    return Outcome(True, solved=True)


def _prp_call(design, res):
    try:
        return resolution.prp_violations(design, res, node_budget=SEARCH_BUDGET)
    except resolution.SearchBudgetExceeded:
        return BudgetExhausted()


def _check_prp(expected: list, result) -> Outcome:
    if isinstance(result, BudgetExhausted):
        return Outcome(True, solved=False)
    observed = [list(v) for v in result]
    if observed != expected:
        return _mismatch("violations", expected, observed)
    return Outcome(True, solved=True)


class SearchWorkload:
    name = "search"

    def __init__(self, seed: int, goldens: dict):
        self.seed = seed
        self.goldens = goldens["search"]
        self.pool = []

    def build(self) -> None:
        masters = _masters()
        pool = []
        for index in range(POOL):
            rng = random.Random(f"search:{self.seed}:{index}")
            pool.append(
                {
                    "hard": [
                        (name, relabel(*masters[name], rng)[0])
                        for name in HARD
                        for _ in range(HARD_COPIES)
                    ],
                    "unique": {
                        name: relabel(*masters[name], rng)[0]
                        for name in self.goldens["unique"]
                    },
                    "many": relabel(*masters["sub4"], rng)[0],
                    "prp": {
                        name: relabel(*masters[name], rng)
                        for name in self.goldens["prp"]
                    },
                }
            )
        self.pool = pool

    def items(self, pass_index: int) -> list[Item]:
        inputs = self.pool[pass_index % len(self.pool)]
        items = [
            Item(
                f"resolve {name} limit=1",
                lambda d=design: _search_verified(d, 1, HARD_BUDGET),
                lambda result: _check_verified(1, result),
            )
            for name, design in inputs["hard"]
        ]
        for name, design in inputs["unique"].items():
            expected = self.goldens["unique"][name]
            items.append(
                Item(
                    f"resolve {name} limit=2",
                    lambda d=design: _search(d, 2, SEARCH_BUDGET),
                    lambda result, n=expected: _check_count(n, result),
                )
            )
        items.append(
            Item(
                "resolve sub4 limit=1000",
                lambda d=inputs["many"]: _search_verified(d, 1000, SEARCH_BUDGET),
                lambda result, n=self.goldens["many"]: _check_verified(n, result),
            )
        )
        for name, (design, res) in inputs["prp"].items():
            expected = self.goldens["prp"][name]
            items.append(
                Item(
                    f"prp {name}",
                    lambda d=design, r=res: _prp_call(d, r),
                    lambda result, v=expected: _check_prp(v, result),
                )
            )
        return items

    def budgets(self) -> dict:
        return {
            "hard_limit1": HARD_BUDGET,
            "hard_copies_per_pass": HARD_COPIES,
            "other_searches": SEARCH_BUDGET,
            "relabel_pool": POOL,
        }


WORKLOADS = {
    "catalog": CatalogWorkload,
    "affine-cli": AffineCliWorkload,
    "search": SearchWorkload,
}

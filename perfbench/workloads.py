"""The benchmark's workloads: a set-up shared by all, and one timed pass each.

A pass returns the objects or files it produced; `gate.summarize_*` turns
them into the invariants the correctness gate compares, outside the timed
region. Every pass builds its theories from fresh objects, so nothing cached
on a theory object carries over from one pass to the next.
"""
from __future__ import annotations

import dataclasses
import glob
import json
import os

# calls go through the modules so that the tracer's wrappers are seen
from fpres import cli, currents, extend, modular, validate, wzw


@dataclasses.dataclass
class Context:
    """Paths and seed of one benchmark process."""

    work: str            # work directory owned by this process
    seed: int
    sun_nk: tuple        # the su(N)_k whose cache the set-up fills cold

    @property
    def cache(self) -> str:
        return os.path.join(self.work, "sun-cache")

    @property
    def sun_input(self) -> str:
        n, k = self.sun_nk
        return os.path.join(self.work, "inputs", f"su{n}_{k}.json")


@dataclasses.dataclass
class LibraryPass:
    ext: object
    resolutions: list
    ext_theory: object
    conditions: dict
    fusion: dict
    modular: dict


def setup(ctx: Context) -> None:
    """Fill the su(N) cache cold and write the CLI input, through the CLI."""
    os.makedirs(os.path.dirname(ctx.sun_input), exist_ok=True)
    n, k = ctx.sun_nk
    rc = cli.main(["generate", "suN", "--N", str(n), "--k", str(k),
                   "--cache-dir", ctx.cache, "--out", ctx.sun_input])
    if rc != 0:
        raise RuntimeError(f"set-up: fpres generate exited {rc}")


def su5_generator_label(seed: int):
    """One of the four generators J, J^2, J^3, J^4 of the diagonal order-5
    subgroup of su(5)_5 x su(5)_5, picked by the seed. All four give the
    same extension, so the reference does not depend on the seed."""
    weight = [0, 0, 0, 0]
    weight[seed % 4] = 5
    return (tuple(weight), tuple(weight))


def _library_pass(md, gens, convention_seed) -> LibraryPass:
    ex = extend.extend(currents.Theory(md), gens,
                       convention_seed=convention_seed)
    checked = modular.check_modular(ex.ext_md)
    res = [ex.resolve(c) for c in ex.residual_classes() if c.order > 1]
    th2 = ex.extended_theory(extra_bundles=[r.bundle for r in res])
    return LibraryPass(ex, res, th2, validate.condition_report(th2),
                       validate.check_fusion_integrality(ex.ext_md), checked)


def su5_pair(ctx: Context, convention_seed=None) -> LibraryPass:
    base = wzw.sun(5, 5, cache_dir=ctx.cache)
    md = modular.tensor(base, base)
    return _library_pass(md, [md.index(su5_generator_label(ctx.seed))],
                         convention_seed)


def su2x4_diag(ctx: Context, convention_seed=None) -> LibraryPass:
    md = modular.tensor(*(wzw.su2(4) for _ in range(4)))
    return _library_pass(md, [md.index((4, 4, 4, 4))], convention_seed)


def smoke_su2(ctx: Context, convention_seed=None) -> LibraryPass:
    return _library_pass(wzw.su2(4), [4], convention_seed)


def smoke_su2x2(ctx: Context, convention_seed=None) -> LibraryPass:
    md = modular.tensor(wzw.su2(4), wzw.su2(4))
    return _library_pass(md, [md.index((4, 4))], convention_seed)


@dataclasses.dataclass
class CliPass:
    codes: list          # exit code of each command
    out: str             # the extend output directory
    validation: str      # the validate report


def _cli_chain(ctx: Context, factor_args, by, seed_conventions) -> CliPass:
    run = os.path.join(ctx.work, "cli-run")
    factor = os.path.join(run, "factor.json")
    product = os.path.join(run, "product.json")
    out = os.path.join(run, "ext")
    validation = os.path.join(run, "validate.json")
    os.makedirs(run, exist_ok=True)
    codes = [cli.main(["generate", *factor_args, "--out", factor])]
    codes.append(cli.main(["tensor", factor, factor, "--out", product]))
    extend_args = ["extend", product, "--by", by, "--out", out]
    if seed_conventions is not None:
        extend_args += ["--seed-conventions", str(seed_conventions)]
    codes.append(cli.main(extend_args))
    bundles = sorted(glob.glob(os.path.join(out, "bundle_*.json")))
    codes.append(cli.main(["validate", os.path.join(out, "extended.json"),
                           "--bundles", *bundles, "--out", validation]))
    return CliPass(codes, out, validation)


def cli_su5(ctx: Context, convention_seed=None) -> CliPass:
    label = json.dumps([list(w) for w in su5_generator_label(ctx.seed)])
    return _cli_chain(ctx, ["suN", "--N", "5", "--k", "5",
                            "--cache-dir", ctx.cache], label, convention_seed)


def smoke_cli_su2x2(ctx: Context, convention_seed=None) -> CliPass:
    return _cli_chain(ctx, ["su2", "--k", "4"], "[4, 4]", convention_seed)


@dataclasses.dataclass(frozen=True)
class Workload:
    run: object               # run(ctx, convention_seed) -> a pass
    kind: str                 # "library" or "cli": how the gate reads it
    reference: str            # file stem under reference/
    library_twin: object      # the same extension through the library
    seeded_conventions: bool  # whether `run` gets the seed as convention seed
    sun_nk: tuple = (5, 5)


# The su5 workloads take the seed as the choice of generator, not as a
# convention seed: fpres resolves the su5 classes under any convention seed
# into bundles that fail check {6}, a defect of fpres. Every traced run
# counts it in `validate.seeded_convention_failures` instead of letting it
# fail each pass.
WORKLOADS = {
    "su5-pair": Workload(su5_pair, "library", "su5-pair", su5_pair, False),
    "su2x4-diag": Workload(su2x4_diag, "library", "su2x4-diag", su2x4_diag, True),
    "cli-su5": Workload(cli_su5, "cli", "su5-pair", su5_pair, False),
    "smoke-su2": Workload(smoke_su2, "library", "smoke-su2", smoke_su2, True,
                          (2, 4)),
    "smoke-cli-su2x2": Workload(smoke_cli_su2x2, "cli", "smoke-su2x2",
                                smoke_su2x2, True, (2, 4)),
}
SMOKE = ("smoke-su2", "smoke-cli-su2x2")

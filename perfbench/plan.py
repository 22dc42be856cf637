"""Frozen workloads, seed-derived plans and per-command correctness checks.

Nothing here is read from the program at run time: the rung lists and the
expected outputs were fixed when the benchmark was written, so a parent
commit and its child always run, and are checked against, the same inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

# The rows `spreadforge params --max-order 16` listed when the benchmark was
# written, minus (2,1,1,1): `construct` cannot build that rung (the q^kt = 2
# group is trivial), so it runs only as the known-defect probe below.
SWEEP_RUNGS = (
    (2, 1, 1, 2), (2, 1, 1, 3), (2, 1, 1, 4), (2, 1, 2, 1), (2, 1, 2, 2),
    (2, 1, 3, 1), (2, 1, 4, 1), (2, 2, 1, 1), (2, 2, 1, 2), (2, 2, 2, 1),
    (2, 3, 1, 1), (2, 4, 1, 1), (3, 1, 1, 1), (3, 1, 2, 1), (3, 2, 1, 1),
    (5, 1, 1, 1), (7, 1, 1, 1), (11, 1, 1, 1), (13, 1, 1, 1),
)
DEFECT_RUNG = (2, 1, 1, 1)
CONSTRUCT_MID_RUNGS = ((2, 1, 1, 4), (3, 1, 1, 3), (2, 1, 2, 2))

WORKLOADS = {
    "sweep": (SWEEP_RUNGS, ("construct", "verify", "oracle", "compare")),
    "construct-mid": (CONSTRUCT_MID_RUNGS, ("construct", "oracle", "compare")),
}
KINDS = ("construct", "verify", "oracle", "compare")

# sha256 of the member lines (everything after the '#' header) of each
# rung's spread, as the seed commit writes it.  The body does not depend on
# (i, j): every choice yields the Desarguesian spread, which is also what
# `oracle` writes.  A change of modulus order changes the digits, and so
# the hash, even where `compare` still finds the two files equal.
SPREAD_BODY_SHA256 = {
    (2, 1, 1, 1): "2737e9f5bfc9d3aba559853896ccb3f38221999d3641497bfd3a333f6c79f336",
    (2, 1, 1, 2): "7704a5925e5ca737de811397f8d542555a804316025d045b3ddc7351b2e23f69",
    (2, 1, 1, 3): "240da88aaba07a1d209edfd4bf3b94ff694bd1a4719241ef0ad1411066fec440",
    (2, 1, 1, 4): "59c3b33862a1fc9aaf0f7b3e5340ce3342e1a1244ff78cf9df3ada53c06e902e",
    (2, 1, 2, 1): "7aad4066a0cd9bc8c93663913dd7183049f08a55d1dfa3c51a8df1b852f15f91",
    (2, 1, 2, 2): "9b62c4e67d4049aaec0f78ef7c95dbfaac8811d4b0b5b19d19f331a605d2d7af",
    (2, 1, 3, 1): "3d34841bb888bb6b82226592bbfd8512763911323c2c615bd93889888f04c298",
    (2, 1, 4, 1): "c9924840463a41e58b59de56c27a38b3bc84b5a4240393fc5baa62f3a5f00218",
    (2, 2, 1, 1): "3c8270f62fb021d95311ea0c3492d2c848a84b4de3b0982847dbcc0f79a894c4",
    (2, 2, 1, 2): "3482fab132471902ea27ea2d34babd8adeec3c72333053eea492a68a597647b8",
    (2, 2, 2, 1): "a72342675c07120c5490b3fd0a1ee807505ad2cbf9899273031e0cd1d9cccd61",
    (2, 3, 1, 1): "a5d2fb4f9cb3b3d01dffa95fabf4ca202fb6183ce0a7da0ce8452ebc4752b5c4",
    (2, 4, 1, 1): "267868cce0b46227ec7a182e4e7ccb392f3f780283da15fd7a70b089a6e1e2f5",
    (3, 1, 1, 1): "7e2d70def46098fef8e26c858bd57ccf9a3daa2b93a5aa8fd95cc3a014523700",
    (3, 1, 1, 3): "e8611b3a87e53cb536ce42d9470c99fdd8b80fbc3fe431f60524f5f6d58023ee",
    (3, 1, 2, 1): "f51ad459bbe30bc303d47d6de9db3b790f163ea7c7c7ac054837ca889b3fe433",
    (3, 2, 1, 1): "9e411e64f00d5563c6f88a57624eb57608399da9027f19781c850eea50de037f",
    (5, 1, 1, 1): "a3e0642da8a2fca294f3906f0d3286519a0cb582af405a16477a4daaebcd4738",
    (7, 1, 1, 1): "b8f038841545a49116b582e154a5d70867fc85c41b30f1e45b021bf64e79b964",
    (11, 1, 1, 1): "a17e48ca4dcc0cb6b9f83e7fcba2f5fec8c45eceac1585384fe8d3e7f5960bfc",
    (13, 1, 1, 1): "fe467227c6ee0eab955c3a27f3a26367ef85edd31c6c3303b5f388df5caea282",
}


@dataclass(frozen=True)
class Rung:
    p: int
    e: int
    k: int
    t: int
    i: int
    j: int

    @property
    def tag(self) -> str:
        return f"p{self.p}e{self.e}k{self.k}t{self.t}"

    @property
    def pekt(self) -> tuple[int, int, int, int]:
        return (self.p, self.e, self.k, self.t)

    @property
    def q(self) -> int:
        return self.p**self.e

    @property
    def n(self) -> int:
        return 2 * self.k * self.t

    @property
    def spread_size(self) -> int:
        return (self.q**self.n - 1) // (self.q**self.k - 1)

    @property
    def nonzero_vectors(self) -> int:
        return self.q**self.n - 1

    def param_flags(self) -> list[str]:
        return ["--p", str(self.p), "--e", str(self.e), "--k", str(self.k), "--t", str(self.t)]


@dataclass(frozen=True)
class Command:
    kind: str
    rung: Rung
    argv: tuple[str, ...]   # arguments after `python -m spreadforge.cli`


def choose_ij(seed: int, workload: str, pekt: tuple[int, int, int, int]) -> tuple[int, int]:
    """The seeded (i, j) of one rung: i in 1..t, j in t+1..2t."""
    t = pekt[3]
    rng = random.Random(f"{seed}/{workload}/{pekt}")
    return rng.randint(1, t), rng.randint(t + 1, 2 * t)


def rungs_for(workload: str, seed: int) -> list[Rung]:
    """The workload's rungs with seeded (i, j); the sweep's order is seeded too."""
    base = list(WORKLOADS[workload][0])
    if workload == "sweep":
        random.Random(f"{seed}/sweep/order").shuffle(base)
    return [Rung(*pekt, *choose_ij(seed, workload, pekt)) for pekt in base]


def rung_dir(workdir: Path, rung: Rung) -> Path:
    return workdir / rung.tag


def commands_for(workload: str, rungs: list[Rung], workdir: Path) -> list[Command]:
    """One round of the workload: each rung's commands in pipeline order."""
    kinds = WORKLOADS[workload][1]
    out = []
    for rung in rungs:
        d = rung_dir(workdir, rung)
        argv = {
            "construct": ("construct", *rung.param_flags(), "--i", str(rung.i),
                          "--j", str(rung.j), "--out", str(d), "--workers", "1"),
            "verify": ("verify", "--in", str(d / "spread.code"), "--workers", "1"),
            "oracle": ("oracle", *rung.param_flags(), "--out", str(d / "oracle.code")),
            "compare": ("compare", str(d / "spread.code"), str(d / "oracle.code")),
        }
        out.extend(Command(kind, rung, argv[kind]) for kind in kinds)
    return out


# -- checks ------------------------------------------------------------------


def body_sha256(text: str) -> str:
    body = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    return hashlib.sha256(body.encode("ascii")).hexdigest()


def header_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        key, sep, value = line[1:].strip().partition("=")
        if sep:
            fields[key] = value
    return fields


def check_code_file(path: Path, rung: Rung, component: str) -> str | None:
    """None if the file holds the rung's frozen spread, else the reason it does not."""
    try:
        text = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read {path.name}: {exc}"
    fields = header_fields(text)
    if fields.get("component") != component:
        return f"{path.name}: component {fields.get('component')!r}, expected {component!r}"
    if component == "spread" and (fields.get("i"), fields.get("j")) != (str(rung.i), str(rung.j)):
        return f"{path.name}: tagged i={fields.get('i')} j={fields.get('j')}, expected {rung.i}, {rung.j}"
    if fields.get("members") != str(rung.spread_size):
        return f"{path.name}: {fields.get('members')} members, expected {rung.spread_size}"
    digest = body_sha256(text)
    if digest != SPREAD_BODY_SHA256[rung.pekt]:
        return f"{path.name}: body sha256 {digest[:12]}... differs from the frozen spread"
    return None


def report_fields(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def check_command(cmd: Command, returncode: int, stdout: str, workdir: Path) -> str | None:
    """None if the command's exit code, output and files are all as frozen."""
    if returncode != 0:
        return f"exit {returncode}"
    rung, d = cmd.rung, rung_dir(workdir, cmd.rung)
    if cmd.kind == "construct":
        want = f"spread: {rung.spread_size} members, min distance {2 * rung.k}"
        if want not in stdout:
            return f"construct did not print {want!r}"
        return check_code_file(d / "spread.code", rung, "spread")
    if cmd.kind == "verify":
        got = report_fields(stdout)
        want = {
            "verdict": "Spread",
            "cardinality": str(rung.spread_size),
            "min_distance": str(2 * rung.k),
            "coverage_count": str(rung.nonzero_vectors),
        }
        for key, value in want.items():
            if got.get(key) != value:
                return f"verify printed {key}={got.get(key)}, expected {value}"
        return None
    if cmd.kind == "oracle":
        if f"oracle spread: {rung.spread_size} members" not in stdout:
            return "oracle did not report the spread size"
        return check_code_file(d / "oracle.code", rung, "oracle")
    if cmd.kind == "compare":
        return None if "codes are equal" in stdout else "compare did not report equal codes"
    raise ValueError(f"unknown command kind {cmd.kind!r}")

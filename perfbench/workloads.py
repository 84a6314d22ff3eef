"""The benchmark's workloads: the CLI jobs each one runs, made from a seed.

A workload is a list of jobs.  A job is one ``boxham.cli.main`` call: a
subcommand, the text of the config file it reads (``None`` for ``cossum``)
and any extra arguments.  Every disorder draw comes from the benchmark seed,
so the same seed gives the same configs and a new seed gives new draws.  No
config sets ``run.workers``: the program's default is what is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

NAMES = ("volume3d", "extended2d", "spectral_exact")


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    config: str | None
    args: tuple[str, ...] = ()
    cells: int = 0  # multiplicity (seed, r) cells this job solves


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]

    @property
    def cells(self) -> int:
        return sum(job.cells for job in self.jobs)


def _config(keys: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def _multiplicity(seed: int, n_jobs: int, n_seeds: int, lengths: str, extra: dict) -> tuple[Job, ...]:
    # Job j draws disorder seeds base .. base + n_seeds - 1; the blocks of two
    # benchmark seeds never overlap.
    d = len(lengths.split(","))
    jobs = []
    for j in range(n_jobs):
        base = (seed * n_jobs + j) * n_seeds
        text = _config(
            {
                "geometry.d": d,
                "geometry.lengths": lengths,
                "geometry.radius": 2,
                "disorder.seeds": n_seeds,
                "disorder.base_seed": base,
                "run.r": 300,
                "run.lambda": "from_lem4:0.4",
                **extra,
            }
        )
        jobs.append(Job(f"m{j}", "multiplicity", text, cells=n_seeds))
    return tuple(jobs)


def volume3d(seed: int, tiny: bool) -> Workload:
    n_jobs, n_seeds = (1, 2) if tiny else (5, 8)
    return Workload("volume3d", _multiplicity(seed, n_jobs, n_seeds, "2, 2, 2", {}))


def extended2d(seed: int, tiny: bool) -> Workload:
    n_jobs, n_seeds = (1, 2) if tiny else (6, 10)
    jobs = _multiplicity(seed, n_jobs, n_seeds, "2, 4", {"precision": "extended"})
    return Workload("extended2d", jobs)


def spectral_exact(seed: int, tiny: bool) -> Workload:
    l_max, ps, lengths = (3, "5,7", "2, 3") if tiny else (12, "7,11,13", "3, 4, 5")
    d = len(lengths.split(","))
    geometry = {"geometry.d": d, "geometry.lengths": lengths, "geometry.radius": 2}
    expansion = _config(
        {
            "geometry.d": 1,
            "geometry.lengths": 2,
            "geometry.radius": 2,
            "run.r": "50, 100, 200, 400, 800, 1600, 3200",
            "expansion.l": ", ".join(str(l) for l in range(2, l_max + 1)),
        }
    )
    gapgrowth = _config(
        {**geometry, "disorder.base_seed": seed, "run.r": "100, 200, 400, 800, 1600"}
    )
    cluster = _config(
        {
            **geometry,
            "disorder.base_seed": seed,
            "run.r": 500,
            "run.lambda": ", ".join(str(v) for v in (2, 3, 5)[:d]),
        }
    )
    return Workload(
        "spectral_exact",
        (
            Job("expansion", "expansion", expansion),
            Job("cossum", "cossum", None, ("--p", ps)),
            Job("gapgrowth", "gapgrowth", gapgrowth),
            Job("cluster", "cluster", cluster),
        ),
    )


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` at ``seed`` >= 0; ``tiny`` shrinks it for the smoke test."""
    return {"volume3d": volume3d, "extended2d": extended2d, "spectral_exact": spectral_exact}[name](
        seed, tiny
    )

"""Planted faults: every driver's verdict fails, with pinned bytes, under a plausible bug.

No shipped config fails, so these cases are what checks the failing half of
each verdict.  Each case monkeypatches one bug into a driver (or into the
code it reads through the ``harness`` namespace), runs its subcommand
through ``cli.main``, and asserts exit 1 plus the sha256 of the verdict
JSON: the failure records' fields, values and order are pinned, not only
their presence.
"""

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from boxham import cli, cyclotomic, harness

CONFIGS = Path(__file__).parent.parent / "configs"


def _merged_clusters(monkeypatch):
    # every eigenvalue lands in one cluster, whatever tau says
    monkeypatch.setattr(harness, "cluster_indices", lambda values, tau: [list(range(len(values)))])


def _absolute_tolerance(monkeypatch):
    # tau fixed as an absolute width instead of scaled to the spectral diameter
    monkeypatch.setattr(harness, "degeneracy_tolerance", lambda values: 1.2e-3)


def _floor_too_wide(monkeypatch):
    # every z counts as hugging the spectrum, so the whole grid is skipped
    monkeypatch.setattr(harness, "PROXIMITY_FLOOR", math.inf)


def _no_hopping(monkeypatch):
    # the Hamiltonian loses its Laplacian: only the potential stays
    monkeypatch.setattr(harness, "apply_laplacian", lambda x, d: np.zeros_like(x))


def _flipped_cos_id(monkeypatch):
    # the last mode tuple is given the first tuple's cosine class id
    table_of = harness.class_table

    def flipped(lengths):
        table = table_of(lengths)
        ids = list(table.cos_ids)
        ids[-1] = ids[0]
        return dataclasses.replace(table, cos_ids=tuple(ids))

    monkeypatch.setattr(harness, "class_table", flipped)


def _shifted_exact(monkeypatch):
    # the exact solver returns every eigenvalue shifted by 1/2
    solve = harness.exact_spectrum
    monkeypatch.setattr(harness, "exact_spectrum", lambda specs: solve(specs) + 0.5)


def _halved_spectrum(monkeypatch):
    # a factor of 2 lost from the labelled factor spectrum
    spectrum_of = harness.mode_resolved_spectrum

    def halved(*args):
        return {t: value / 2.0 for t, value in spectrum_of(*args).items()}

    monkeypatch.setattr(harness, "mode_resolved_spectrum", halved)


def _zero_coefficients(monkeypatch):
    # the coefficients miss their design intervals: every draw is zero
    monkeypatch.setattr(harness, "midpoint_coefficients", lambda intervals: [0.0] * len(intervals))
    monkeypatch.setattr(harness, "draw_coefficients", lambda intervals, rng: [0.0] * len(intervals))


def _opposite_face(monkeypatch):
    # the face product of +e_i is compared with the indicator of the -e_i face
    product_of = harness.face_product

    def opposite(part, direction):
        return product_of(part, direction)[0], product_of(part, -direction)[1]

    monkeypatch.setattr(harness, "face_product", opposite)


def _every_identity_broken(monkeypatch):
    _opposite_face(monkeypatch)
    monkeypatch.setattr(harness, "partition_of_unity_holds", lambda part: False)
    identity = harness.neighbor_sum_identity

    def off_by_one(part):
        lhs, rhs = identity(part)
        return lhs, rhs + 1

    monkeypatch.setattr(harness, "neighbor_sum_identity", off_by_one)


def _truncated_reduction(monkeypatch):
    # only the first coordinate of each Z[zeta_m] row is kept
    rows_of = cyclotomic.cos_rows
    monkeypatch.setattr(cyclotomic, "cos_rows", lambda exponents, m: rows_of(exponents, m)[:, :1])


_SIMPLE_4X6 = """
geometry.d = 2
geometry.lengths = 4, 6
geometry.radius = 2
disorder.seeds = 2
run.r = 3000, 300
run.lambda = from_lem4:0.4
"""

_EXPANSION_SMALL = """
geometry.d = 1
geometry.lengths = 2
geometry.radius = 2
run.r = 50, 100, 200, 400, 800, 1600, 3200
expansion.l = 2, 3
"""

# case -> (subcommand, config text or shipped config stem or --p moduli, fault)
_CASES = {
    # bound and simple failures interleave cell by cell: r is listed largest first
    "multiplicity_merged_4x6": ("multiplicity", _SIMPLE_4X6, _merged_clusters),
    "constancy_absolute_tau": ("constancy", "constancy_2x2", _absolute_tolerance),
    "constancy_all_skipped": ("constancy", "constancy_2x2", _floor_too_wide),
    "rankcheck_no_hopping": ("rankcheck", "rankcheck_2x2", _no_hopping),
    "gapgrowth_flipped_cos_id": ("gapgrowth", "gapgrowth_2x2", _flipped_cos_id),
    "expansion_shifted_exact": ("expansion", _EXPANSION_SMALL, _shifted_exact),
    "cluster_halved_spectrum": ("cluster", "cluster_2x4", _halved_spectrum),
    "separation_zero_coefficients": ("separation", "separation_2x4", _zero_coefficients),
    "partition_opposite_face": ("partition", "partition_2x3", _opposite_face),
    "partition_every_identity": ("partition", "partition_2x3", _every_identity_broken),
    "cossum_truncated_reduction": ("cossum", "5,7", _truncated_reduction),
}

# sha256 of each case's verdict JSON: the fields, values and order of its
# failure records are all pinned
_VERDICT_SHA256 = {
    "cluster_halved_spectrum": "dfa9264c04d898816ea585d85e1ecc9bba29863d215d2e9cdbaf57613b925662",
    "constancy_absolute_tau": "861771651bc1501f07cb0abe79dcb252bf422599b6e8803e930f0aa5bc33a7b9",
    "constancy_all_skipped": "e37dfc135fd37cbe9b4cccca0d92f4cd9e3c80862997b8027c893161ff7eaedd",
    "cossum_truncated_reduction": "a14121dfe2722186a9ab5e7b10461d54a4ecf6292f230d94b0988f403e09ebf3",
    "expansion_shifted_exact": "cacfcfe2c4faa0357b3d2794373da5e70ebe7f993cf174620a90f0a2c3efae7f",
    "gapgrowth_flipped_cos_id": "a1e91a2af9dc58d3d3a06e9837ac79bff0716d037b98a15c7aa2c3a083711a53",
    "multiplicity_merged_4x6": "b9f87c1258590d72e408c6ffaaa1e4eaf3ab53cfc5a488ed3a84ecd83af06261",
    "partition_every_identity": "fb71516143d6ac084c6d12da1e9dc866c3cf1abaf8bdade56d789d958380d899",
    "partition_opposite_face": "e1c48f343d5905950d369703c76ab0a446af2ad3255b4084d31673224b322816",
    "rankcheck_no_hopping": "8a028ecf686692c9a90f37462c13d615dd12d9e2c7b70aa95262c83bf24bff00",
    "separation_zero_coefficients": "e18f60aa2ef227d6aaaac7af59082434764ea97789c417994c0818b5c80c78b1",
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_planted_fault_fails_with_pinned_verdict(tmp_path, monkeypatch, capsys, case):
    command, subject, fault = _CASES[case]
    out = tmp_path / "out"
    if command == "cossum":
        argv = [command, "--p", subject]
    elif "\n" in subject:
        cfg = tmp_path / "case.cfg"
        cfg.write_text(subject)
        argv = [command, "--config", str(cfg)]
    else:
        argv = [command, "--config", str(CONFIGS / f"{subject}.cfg")]
    fault(monkeypatch)
    assert cli.main(argv + ["--out", str(out)]) == 1
    verdict = (out / f"{command}_verdict.json").read_bytes()
    assert b'"pass": false' in verdict
    assert f"{command}: FAIL" in capsys.readouterr().out
    assert hashlib.sha256(verdict).hexdigest() == _VERDICT_SHA256[case]

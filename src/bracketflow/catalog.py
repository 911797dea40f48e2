"""Curated initial data with known closed-form flow behavior.

Every entry is authored as exact rational structure constants, so the
admissibility residuals vanish to rounding and the scalar curvature at t = 0
is an exact rational.  The closed forms quoted in the comment above each
entry come from reducing the flow to a scalar ODE on the surviving
coefficient(s); they are what the acceptance suite checks the integrator
against.

The universal-cover and isotropy-closedness notes are human-authored
mathematical facts about each entry, recorded as provenance; the code never
attempts to verify them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import LieBracket
from .flow import Trajectory, _ratio

__all__ = ["CatalogEntry", "catalog_entries", "get_entry", "cover_dichotomy_check", "DichotomyVerdict"]


@dataclass(frozen=True)
class CatalogEntry:
    """Named initial bracket plus its expected flow behavior.

    expected maps 'forward'/'backward' to ('immortal', None) or
    ('blowup', singular_time).
    """

    name: str
    bracket: LieBracket
    r0: float
    expected: dict
    universal_cover_note: str
    h2_note: str
    default_horizon: dict = field(default_factory=lambda: {"forward": 10.0, "backward": 10.0})


def _entries() -> list[CatalogEntry]:
    entries = []

    # Abelian R^3: the zero bracket is an exact fixed point of the flow, so
    # mu(t) = 0 and R(t) = 0 for all t.
    entries.append(
        CatalogEntry(
            name="abelian3",
            bracket=LieBracket.zero(0, 3),
            r0=0.0,
            expected={"forward": ("flat", None), "backward": ("flat", None)},
            universal_cover_note="R^n",
            h2_note="q = 0: isotropy is trivial, closedness is vacuous",
        )
    )

    # Heisenberg group H3: mu(e1,e2) = e3.  Ric = diag(-1/2,-1/2,1/2) c^2 for
    # coefficient c, the flow reduces to c' = -(3/2) c^3, so
    # c(t) = (1+3t)^(-1/2) and R(t) = -1/(2(1+3t)); ancient side ends at -1/3.
    entries.append(
        CatalogEntry(
            name="heisenberg3",
            bracket=LieBracket.from_triples(0, 3, [(1, 2, 3, 1.0)], one_indexed=True),
            r0=-0.5,
            expected={"forward": ("immortal", None), "backward": ("blowup", -1.0 / 3.0)},
            universal_cover_note="R^n",
            h2_note="q = 0: isotropy is trivial, closedness is vacuous",
            default_horizon={"forward": 10.0, "backward": 1.0},
        )
    )

    # su(2) with the bi-invariant (round S^3) metric: cyclic bracket, Ric =
    # (c^2/2) I, flow c' = c^3/2, c(t)^2 = 1/(1-t): forward singular at 1,
    # with R(t) = (3/2)/(1-t) and |mu(t)| = sqrt(6) (1-t)^(-1/2).
    entries.append(
        CatalogEntry(
            name="su2_round",
            bracket=LieBracket.from_triples(
                0, 3, [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (3, 1, 2, 1.0)], one_indexed=True
            ),
            r0=1.5,
            expected={"forward": ("blowup", 1.0), "backward": ("immortal", None)},
            universal_cover_note="not R^n",
            h2_note="q = 0: isotropy is trivial, closedness is vacuous",
            default_horizon={"forward": 2.0, "backward": 10.0},
        )
    )

    # Hyperbolic 3-space as the solvable group mu(e3,e1) = e1, mu(e3,e2) = e2:
    # Einstein with Ric = -2I, flow c' = -2c^3, c(t) = (1+4t)^(-1/2) and
    # R(t) = -6/(1+4t); ancient side ends at -1/4 (equality in the
    # extinction bound).
    entries.append(
        CatalogEntry(
            name="hyperbolic3",
            bracket=LieBracket.from_triples(0, 3, [(3, 1, 1, 1.0), (3, 2, 2, 1.0)], one_indexed=True),
            r0=-6.0,
            expected={"forward": ("immortal", None), "backward": ("blowup", -0.25)},
            universal_cover_note="R^n",
            h2_note="q = 0: isotropy is trivial, closedness is vacuous",
            default_horizon={"forward": 10.0, "backward": 1.0},
        )
    )

    # Heisenberg x R: the four-dimensional two-step nilpotent algebra.  The
    # extra flat direction is inert, so the flow obeys heisenberg3's scalar
    # ODE and its ancient side ends at -1/3 too.
    entries.append(
        CatalogEntry(
            name="nilpotent4",
            bracket=LieBracket.from_triples(0, 4, [(1, 2, 3, 1.0)], one_indexed=True),
            r0=-0.5,
            expected={"forward": ("immortal", None), "backward": ("blowup", -1.0 / 3.0)},
            universal_cover_note="R^n",
            h2_note="q = 0: isotropy is trivial, closedness is vacuous",
            default_horizon={"forward": 10.0, "backward": 1.0},
        )
    )

    # Hyperbolic plane as the affine group of the line: mu(e1,e2) = e2,
    # Einstein with Ric = -I, flow c' = -c^3, c(t) = (1+2t)^(-1/2) and
    # R(t) = -2/(1+2t); ancient side ends at -1/2 (equality in the
    # extinction bound).
    entries.append(
        CatalogEntry(
            name="hyperbolic_plane",
            bracket=LieBracket.from_triples(0, 2, [(1, 2, 2, 1.0)], one_indexed=True),
            r0=-2.0,
            expected={"forward": ("immortal", None), "backward": ("blowup", -0.5)},
            universal_cover_note="R^n",
            h2_note="q = 0: isotropy is trivial, closedness is vacuous",
            default_horizon={"forward": 10.0, "backward": 1.0},
        )
    )

    # Round 2-sphere with one-dimensional isotropy: basis (Z, e1, e2) with
    # mu(Z,e1) = e2, mu(Z,e2) = -e1, mu(e1,e2) = Z.  Ric = I (Gauss curvature
    # 1), and with the isotropy coefficient pinned at 1 the p-coefficient b
    # obeys b' = 2b^2, so b(t) = 1/(1-2t): forward singular at 1/2 with
    # R(t) = 2/(1-2t) (equality in the extinction bound).
    entries.append(
        CatalogEntry(
            name="sphere2_su2",
            bracket=LieBracket.from_triples(
                1, 2, [(1, 2, 3, 1.0), (1, 3, 2, -1.0), (2, 3, 1, 1.0)], one_indexed=True
            ),
            r0=2.0,
            expected={"forward": ("blowup", 0.5), "backward": ("immortal", None)},
            universal_cover_note="not R^n",
            h2_note="isotropy U(1) in SU(2) is closed (authored fact)",
            default_horizon={"forward": 1.0, "backward": 10.0},
        )
    )

    # Product of the round 2-sphere entry with a flat line: exercises a
    # product metric whose flat factor is inert; the sphere factor still
    # collapses at 1/2 while the extinction bound gives only 3/4.
    entries.append(
        CatalogEntry(
            name="sphere2_times_line",
            bracket=LieBracket.from_triples(
                1, 3, [(1, 2, 3, 1.0), (1, 3, 2, -1.0), (2, 3, 1, 1.0)], one_indexed=True
            ),
            r0=2.0,
            expected={"forward": ("blowup", 0.5), "backward": ("immortal", None)},
            universal_cover_note="not R^n",
            h2_note="isotropy U(1) in SU(2) x R is closed (authored fact)",
            default_horizon={"forward": 1.0, "backward": 10.0},
        )
    )

    return entries


_CACHE: list[CatalogEntry] | None = None


def catalog_entries() -> list[CatalogEntry]:
    """All authored entries, in a stable order."""
    global _CACHE
    if _CACHE is None:
        _CACHE = _entries()
    return list(_CACHE)


def get_entry(name: str) -> CatalogEntry:
    for entry in catalog_entries():
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in catalog_entries())
    raise KeyError(f"no catalog entry named {name!r}; known entries: {known}")


@dataclass(frozen=True)
class DichotomyVerdict:
    """Outcome of the universal-cover dichotomy check for one entry."""

    ok: bool
    detail: str


def cover_dichotomy_check(entry: CatalogEntry, traj: Trajectory) -> DichotomyVerdict:
    """Check the cover dichotomy on one entry from its forward run `traj`.

    Cover R^n: the forward flow must reach its horizon with R(t) <= 0
    throughout, up to 1e-9 of the run's max |R|.  Cover not R^n: the entry
    carries R(0) > 0 and must hit a forward singularity no later than
    bound = (n/2) / R(0), up to 1e-3 of the bound.  Both slacks are relative, so
    the verdict does not change under mu -> c mu with r0 c^2 and the horizon
    / c^2.  A contradiction yields a failing verdict, not an exception.
    """
    n = entry.bracket.dims.n
    if entry.universal_cover_note == "R^n":
        if traj.verdict.kind not in ("immortal", "flat"):
            return DichotomyVerdict(False, f"expected immortal forward flow, got {traj.verdict.kind}")
        worst = float(np.max(traj.scalar_R))
        if _ratio(worst, np.max(np.abs(traj.scalar_R))) > 1e-9:
            return DichotomyVerdict(False, f"R reached {worst:.3e} > 0 on a cover-R^n entry")
        return DichotomyVerdict(True, f"immortal to horizon, max R = {worst:.3e}")
    # not R^n: this entry is the positive-curvature witness
    if entry.r0 <= 0:
        return DichotomyVerdict(False, "entry marked 'not R^n' must carry R(0) > 0")
    if traj.verdict.kind != "blowup":
        return DichotomyVerdict(False, f"expected forward blowup, got {traj.verdict.kind}")
    bound = (n / 2.0) / entry.r0
    if traj.verdict.omega_est - bound > 1e-3 * bound:
        return DichotomyVerdict(
            False, f"omega_est = {traj.verdict.omega_est:.6f} exceeds extinction bound {bound:.6f}"
        )
    return DichotomyVerdict(True, f"blowup at {traj.verdict.omega_est:.6f} <= bound {bound:.6f}")

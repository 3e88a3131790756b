"""Stand-in catalog for the paper's SuiteSparse matrix set.

The paper evaluates on "real-world-problem matrices from the SuiteSparse
Matrix Collection [...] 2k to 3.2k columns, 1.3k to 680.3k nonzeros,
varying aspect ratios, [...] various problem domains" and names three
matrices: Ragusa18 (a tiny 64-nonzero edge case), and G11/G7 (the low-
and high-efficiency power-calibration points).

We have no network access, so this module defines *named synthetic
stand-ins*: each entry records the dimensions/nnz of a plausible real
matrix (exact where published, envelope-filling otherwise) plus a
structural generator that mimics its problem domain. Real ``.mtx`` files
can be substituted via :func:`repro.formats.read_matrix_market`.

Every entry also carries a ``scale`` hook: experiments can shrink a
matrix while preserving its average row degree, keeping cycle-level
simulation tractable without distorting the trends (which the paper
plots against nnz/row).
"""

from dataclasses import dataclass, field

from repro.errors import FormatError
from repro.workloads.synthetic import random_csr


@dataclass(frozen=True)
class MatrixSpec:
    """A named matrix recipe in the stand-in collection."""

    name: str
    nrows: int
    ncols: int
    nnz: int
    distribution: str
    domain: str
    params: dict = field(default_factory=dict)

    @property
    def nnz_per_row(self):
        return self.nnz / self.nrows

    def generate(self, seed=None, scale=1.0):
        """Instantiate the matrix (optionally scaled down).

        ``scale`` < 1 shrinks rows and nnz together so nnz/row — the
        quantity the paper's figures sweep — is preserved.
        """
        if not 0.0 < scale <= 1.0:
            raise FormatError(f"scale must be in (0, 1], got {scale}")
        nrows = max(1, round(self.nrows * scale))
        nnz = max(1, round(self.nnz * scale))
        nnz = min(nnz, nrows * self.ncols)
        if seed is None:
            seed = _stable_seed(self.name)
        return random_csr(
            nrows, self.ncols, nnz, distribution=self.distribution,
            seed=seed, **self.params,
        )


def _stable_seed(name):
    """A deterministic per-name seed (independent of PYTHONHASHSEED)."""
    acc = 0
    for ch in name:
        acc = (acc * 131 + ord(ch)) & 0x7FFFFFFF
    return acc


#: The paper's named calibration/edge-case matrices.
RAGUSA18 = MatrixSpec(
    "Ragusa18", 23, 23, 64, "uniform",
    domain="directed weighted graph",
)
G11 = MatrixSpec(
    "G11", 800, 800, 3200, "uniform",
    domain="random graph (Gset); paper's low-efficiency power anchor",
)
G7 = MatrixSpec(
    "G7", 800, 800, 38352, "uniform",
    domain="random graph (Gset); paper's high-efficiency power anchor",
)

#: Envelope-filling stand-ins: 2k-3.2k columns, 1.3k-680.3k nonzeros,
#: varying aspect ratios and structures across problem domains.
PAPER_SET = (
    MatrixSpec("west2021", 2021, 2021, 7310, "powerlaw",
               domain="chemical engineering", params={"alpha": 1.1}),
    MatrixSpec("bwm2000", 2000, 2000, 7996, "banded",
               domain="chemical kinetics", params={"bandwidth": 3}),
    MatrixSpec("rdb2048", 2048, 2048, 12032, "banded",
               domain="reaction-diffusion", params={"bandwidth": 4}),
    MatrixSpec("add20", 2395, 2395, 13151, "powerlaw",
               domain="circuit simulation", params={"alpha": 1.4}),
    MatrixSpec("lshp3025", 3025, 3025, 20833, "banded",
               domain="finite-element mesh", params={"bandwidth": 28}),
    MatrixSpec("memplus", 1758, 2005, 21345, "powerlaw",
               domain="memory circuit (rectangular cut)", params={"alpha": 1.5}),
    MatrixSpec("sherman5", 3180, 3180, 20793, "banded",
               domain="oil reservoir (trimmed to the stated envelope)",
               params={"bandwidth": 24}),
    MatrixSpec("bcsstk13", 2003, 2003, 83883, "block",
               domain="structural mechanics", params={"blocks": 12}),
    MatrixSpec("orani678", 2529, 2529, 90158, "uniform",
               domain="economics"),
    MatrixSpec("psmigr_2", 3140, 3140, 540022, "powerlaw",
               domain="population migration", params={"alpha": 0.9}),
    MatrixSpec("psmigr_1", 3140, 3140, 543162, "uniform",
               domain="population migration"),
    MatrixSpec("dense3k", 3200, 3200, 680320, "constant",
               domain="envelope top: near-regular coupling"),
)

#: Narrow matrices exercising aspect-ratio variation.
RECTANGULAR_SET = (
    MatrixSpec("lp_fit2p", 3000, 2100, 50284, "uniform",
               domain="linear programming (tall)"),
    MatrixSpec("wm1", 2128, 3200, 66671, "powerlaw",
               domain="economics (wide)", params={"alpha": 1.2}),
)

#: Beyond the paper's envelope: matrices far too large to cycle-step
#: in Python, intended for the compiled backend (``backend="compiled"``) —
#: the follow-up papers (SSSR, NM-PIC) evaluate at this scale.
LARGE_SET = (
    MatrixSpec("webgraph64k", 65536, 65536, 1048576, "powerlaw",
               domain="web/social graph (scale-free)", params={"alpha": 1.2}),
    MatrixSpec("fem256k", 262144, 262144, 4718592, "banded",
               domain="large finite-element mesh", params={"bandwidth": 12}),
    MatrixSpec("recsys128k", 131072, 131072, 6553600, "uniform",
               domain="recommender interaction matrix"),
)

#: Scale-out workloads for the multi-cluster scaling experiments
#: (:mod:`repro.eval.scaling`): a skewed degree-sorted power-law graph
#: (heavy rows form one contiguous band — block row distribution's
#: worst case), its shuffled counterpart, and a balanced baseline.
SCALING_SET = (
    MatrixSpec("powerlaw-sorted-2k", 2048, 2048, 65536, "powerlaw",
               domain="degree-sorted scale-free graph (skew stressor)",
               params={"alpha": 1.2, "sort_rows": True}),
    MatrixSpec("powerlaw-2k", 2048, 2048, 65536, "powerlaw",
               domain="scale-free graph (shuffled rows)",
               params={"alpha": 1.2}),
    MatrixSpec("uniform-2k", 2048, 2048, 65536, "uniform",
               domain="balanced baseline for scaling efficiency"),
)

_ALL = {spec.name: spec for spec in (RAGUSA18, G11, G7, *PAPER_SET,
                                     *RECTANGULAR_SET, *LARGE_SET,
                                     *SCALING_SET)}


def matrix_names():
    """All catalog names, calibration anchors first."""
    return list(_ALL)


def get_spec(name):
    """Look up a :class:`MatrixSpec` by name."""
    try:
        return _ALL[name]
    except KeyError:
        raise FormatError(f"unknown matrix {name!r}; known: {sorted(_ALL)}") from None


def paper_set():
    """The Fig. 4b/4c/4d evaluation set (ordered by nnz/row)."""
    return sorted(PAPER_SET, key=lambda s: s.nnz_per_row)


def calibration_set():
    """The §IV-D power-calibration anchors (G11 low, G7 high)."""
    return (G11, G7)


def large_set():
    """Beyond-envelope matrices for compiled-backend sweeps (by nnz/row)."""
    return sorted(LARGE_SET, key=lambda s: s.nnz_per_row)


def scaling_set():
    """Workloads for the multi-cluster scaling experiments (skew first)."""
    return list(SCALING_SET)


def load(name, seed=None, scale=1.0):
    """Generate the named matrix at the given scale."""
    return get_spec(name).generate(seed=seed, scale=scale)

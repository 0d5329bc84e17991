"""The four accuracy-moderated configurations (Fig. 5).

The paper compares all three methods under configurations tuned so that
they reach *similar accuracy*, making online/offline cost comparable
(Sect. 6.1).  Parameters here are re-calibrated for our scaled-down
graphs: ``num_hubs`` is shared, and each method keeps its private knob
(HubRankP's ``push`` residual threshold, MonteCarlo's samples-per-query
``N``, FastPPV's iteration budget ``eta``); the resulting accuracy table
(our Fig. 6) is what ``benchmarks/bench_fig06_07_baselines.py`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import DEFAULT_DELTA


@dataclass(frozen=True)
class Config:
    """One accuracy-moderated configuration (a row of Fig. 5)."""

    name: str
    dataset: str  # "dblp" or "livejournal"
    num_hubs: int
    hubrank_push: float
    montecarlo_samples: int
    fastppv_eta: int
    fastppv_delta: float = 0.001

    def __post_init__(self) -> None:
        if self.dataset not in ("dblp", "livejournal"):
            raise ValueError(f"unknown dataset {self.dataset!r}")


#: Fig. 5 analogue.  Paper values, for reference:
#:   I:   DBLP |H|=20K,  push=0.11, N=120K, eta=2
#:   II:  DBLP |H|=30K,  push=0.13, N=40K,  eta=1
#:   III: LJ   |H|=150K, push=0.20, N=200K, eta=3
#:   IV:  LJ   |H|=200K, push=0.29, N=10K,  eta=1
CONFIGS: dict[str, Config] = {
    "I": Config(
        name="I",
        dataset="dblp",
        num_hubs=150,
        hubrank_push=3e-4,
        montecarlo_samples=5000,
        fastppv_eta=2,
    ),
    "II": Config(
        name="II",
        dataset="dblp",
        num_hubs=300,
        hubrank_push=6e-4,
        montecarlo_samples=1500,
        fastppv_eta=1,
    ),
    "III": Config(
        name="III",
        dataset="livejournal",
        num_hubs=300,
        hubrank_push=4e-4,
        montecarlo_samples=8000,
        fastppv_eta=3,
    ),
    "IV": Config(
        name="IV",
        dataset="livejournal",
        num_hubs=600,
        hubrank_push=1.5e-3,
        montecarlo_samples=1500,
        fastppv_eta=1,
    ),
}

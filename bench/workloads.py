"""The benchmark's workloads: configs, schemes, and the inputs of each round.

Importing this module puts the program's sources (``src`` next to the
benchmark's directory) first on ``sys.path``; it exits with an error when
they are missing, so the benchmark never runs an installed copy.

Every round of a workload attempts the same operations: the fault probes,
fixed inputs on which a named fault of the program shows every time, and
inputs that the workload seed draws from the pool of candidates that pass
every check today. So the share of failed trials is the same in every run,
whatever the seed and however many rounds fit in the run.

Candidates 0-199 of each workload were screened with screen.py, which also
splits the passing ones into strata by their IPM iteration count. The k-th
drawn input of a run comes from stratum k mod S, so every S draws hold the
same mix of cheap and costly trials and the spread between seeds stays
small. Every run completes at least ``cycle`` rounds; ``ipm_iters`` sums
them, so it repeats exactly for a seed. README.md counts the candidates
left out, by fault.
"""

import os
import sys
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "fdsec", "__init__.py")):
    sys.exit(f"bench: the program's sources are missing ({SRC}/fdsec)")
sys.path.insert(0, SRC)

from fdsec import SystemConfig  # noqa: E402

PAPER_CONFIG = SystemConfig()                       # N=8, K=6, J=3, M=5
SWEEP_CONFIG = SystemConfig(n_antennas=6, n_dl=2, n_ul=2, n_idle=1)
GAMMAS_DB = (6.0, 12.0, 18.0, 24.0)
SWEEP_SCHEMES = ("optimal", "baseline1", "baseline2")
SWEEP_JOBS = 2
WARMUP_SEED = 1_000_000        # outside every pool and probe


@dataclass(frozen=True)
class Workload:
    name: str
    config: SystemConfig
    schemes: tuple
    probes: tuple              # fixed seeds, each showing a named fault
    strata: tuple              # passing seeds (sweep: window starts), by cost
    cycle: int                 # rounds every run completes; ipm_iters sums them
    window: int = 0            # >0: harness.sweep over this many seeds per draw

    @property
    def sweep(self):
        return self.window > 0

    def configs(self):
        if not self.sweep:
            return [self.config]
        return [self.config.with_updates(gamma_dl_req_db=(), gamma_dl_req_default_db=g)
                for g in GAMMAS_DB]

    def tasks(self):
        """(config, scheme) pairs evaluated for one seed."""
        return [(cfg, scheme) for cfg in self.configs() for scheme in self.schemes]

    def rounds(self, seed):
        """Endless rounds of drawn inputs: one per stratum, or one window."""
        rng = np.random.default_rng(seed)
        orders = [[int(s) for s in rng.permutation(stratum)] for stratum in self.strata]
        k = 0
        while True:
            count = 1 if self.sweep else len(self.strata)
            drawn = []
            for i in range(k, k + count):
                order = orders[i % len(orders)]
                drawn.append(order[(i // len(orders)) % len(order)])
            yield drawn
            k += count


# Written by screen.py from candidates 0-199: paper-optimal --strata 6,
# paper-hd --strata 7 --tail 3, gamma-sweep --strata 3.
PAPER_OPTIMAL_STRATA = (
    (0, 22, 27, 28, 29, 36, 37, 44, 46, 48, 55, 67, 82, 88, 93, 96, 97, 98, 99, 109, 112,
     113, 124, 138, 140, 141, 159, 162, 170, 171, 174, 189),
    (3, 16, 21, 32, 47, 50, 52, 57, 64, 71, 72, 73, 77, 78, 83, 87, 95, 101, 106, 110, 118,
     119, 134, 137, 142, 160, 176, 179, 191, 192, 196, 198),
    (1, 4, 5, 23, 31, 49, 53, 66, 75, 79, 80, 81, 85, 86, 91, 94, 100, 108, 121, 125, 143,
     146, 149, 151, 155, 157, 158, 163, 177, 178, 180, 183),
    (2, 7, 8, 15, 17, 26, 33, 38, 39, 51, 56, 59, 61, 65, 69, 70, 74, 103, 117, 122, 127,
     128, 130, 135, 152, 161, 167, 173, 175, 182, 188, 190),
    (6, 9, 12, 19, 34, 40, 41, 42, 54, 58, 60, 62, 92, 102, 114, 115, 116, 139, 144, 147,
     153, 154, 164, 166, 168, 169, 181, 184, 185, 186, 195, 199),
    (10, 11, 13, 14, 18, 20, 24, 25, 30, 35, 43, 63, 68, 84, 89, 90, 105, 107, 111, 120,
     123, 126, 131, 133, 136, 145, 150, 156, 172, 187, 193, 194, 197),
)
PAPER_HD_STRATA = (
    (20, 21, 24, 34, 35, 38, 40, 45, 55, 68, 74, 78, 79, 96, 110, 123, 126, 175, 176, 178),
    (8, 13, 14, 15, 70, 71, 86, 114, 121, 128, 132, 133, 139, 142, 145, 147, 177, 179, 195,
     197),
    (1, 10, 11, 25, 26, 28, 31, 72, 89, 91, 100, 109, 112, 129, 140, 153, 160, 163, 181,
     192),
    (3, 6, 9, 12, 18, 23, 44, 49, 54, 60, 98, 120, 144, 148, 154, 165, 167, 180, 183, 185),
    (42, 47, 50, 51, 75, 77, 93, 102, 104, 105, 118, 125, 138, 157, 159, 164, 172, 182, 184,
     186),
    (2, 4, 32, 33, 43, 61, 63, 64, 76, 84, 103, 107, 111, 115, 122, 146, 150, 161, 173,
     194),
    (29, 166, 169),
)
GAMMA_SWEEP_STRATA = (
    (15, 18, 33, 38, 39, 47, 71, 95, 99, 111, 112, 139, 150, 151, 157, 158, 164, 165, 191),
    (1, 6, 14, 40, 57, 58, 59, 69, 74, 81, 100, 105, 106, 140, 152, 153, 171, 183, 197),
    (0, 7, 8, 12, 13, 37, 51, 60, 61, 64, 70, 84, 89, 96, 107, 118, 174, 194, 195, 196),
)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper-optimal",
        config=PAPER_CONFIG, schemes=("optimal",), probes=(), strata=PAPER_OPTIMAL_STRATA,
        cycle=4,
    ),
    Workload(
        name="paper-hd",
        # probes: phase-1 primal_infeasible verdicts whose multipliers are no
        # Farkas ray and whose UL precheck does not fire
        config=PAPER_CONFIG, schemes=("hd",), probes=(0, 5), strata=PAPER_HD_STRATA,
        cycle=3,
    ),
    Workload(
        name="gamma-sweep",
        # probe: baseline2 ends in numerical_failure at 24 dB, and is reported
        # optimal at a raw IPM point that violates a row at 6 and 12 dB
        config=SWEEP_CONFIG, schemes=SWEEP_SCHEMES, probes=(10,), strata=GAMMA_SWEEP_STRATA,
        cycle=3, window=2,
    ),
)}

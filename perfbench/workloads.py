"""The benchmark's workloads: which CLI call each one makes, and its sizes.

Every workload goes through ``wgstokes.cli.main`` with the CLI's default
mesh seed.  The benchmark's own seed does not reach the timed rounds: on
perturbed-polygon meshes at n=32 the L+U fill of the saddle matrix, and
with it the solve time and peak memory, moves by up to 40 % from one mesh
seed to the next, which would swamp any change between commits.
The seed generates the perturbed-polygon mesh of a check instead
(checks.py).
"""

import dataclasses


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "study" or "infsup"
    family: str
    degree: int
    n0: int
    levels: int
    condense: bool = False

    def argv(self, csv_path):
        """Arguments for ``wgstokes.cli.main``; study runs write ``csv_path``."""
        args = [
            self.command,
            "--family", self.family,
            "--degree", str(self.degree),
            "--n0", str(self.n0),
            "--levels", str(self.levels),
        ]
        if self.command == "study":
            args += ["--case", "taylor-trig", "--out", str(csv_path)]
            if self.condense:
                args.append("--condense")
        return args

    def operations_per_round(self):
        """One per level solved and checked, plus one per beta_h wanted."""
        return self.levels * (2 if self.command == "study" else 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study-quad-k1", "study", "uniform-quad", 1, 4, 4, condense=True),
        Workload("saddle-polygon-k2", "study", "perturbed-polygon", 2, 8, 3),
        Workload("infsup-hex-k2", "infsup", "hexagonal", 2, 4, 3),
    )
}

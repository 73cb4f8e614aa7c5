"""The benchmark's workloads: which CLI commands each runs, with what inputs.

Each workload is a list of CLI commands, run back to back as fresh
processes. ``trials`` is the untraced run's trial count, ``replay_trials``
the traced run's and ``tiny_trials`` the self-test's. The rationale for
each workload is in BENCHMARK.json and README.md.
"""

WORKLOADS = {
    "simulate-m12": {
        "commands": [["simulate"]],
        "trials": 100_000, "replay_trials": 8192, "tiny_trials": 256,
    },
    "predict-audit-m12": {
        "commands": [["predict"], ["audit"]],
        "trials": 0, "replay_trials": 8192, "tiny_trials": 0,
    },
}


def cli_args(command: list[str], trials: int, seed: int) -> list[str]:
    """The command's CLI arguments; the seed sets the trial noise only."""
    if command[0] == "simulate":
        return command + ["--trials", str(trials), "--seed", str(seed)]
    return list(command)

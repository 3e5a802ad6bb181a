import numpy as np

from cstomo import experiment

SCOREBOARD = []


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance scoreboard where output capture cannot swallow it."""
    if not SCOREBOARD:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(SCOREBOARD, key=lambda item: item[0]):
        terminalreporter.write_line(line[1])


def solve_sweep_cells(config):
    """Draw and solve every cell of `config`'s sweep in this process, in the order
    `run_benchmark` does, so that hooks set on the program see every solve."""
    for trial_ss in np.random.SeedSequence(config.seed).spawn(config.trials):
        for cell in experiment._draw_trial(config, trial_ss):
            experiment._solve_cell(cell, timing=False)

"""hpot benchmark package: see perfbench/run.py."""

"""Time one workload's set-up in this fresh interpreter and print it in seconds.

Set-up is the import, the config and, for the workloads whose inputs need
it, ``plan_herders``. run.py starts this script several times to measure
``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload> [--tiny]
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import locate  # noqa: E402


def main(argv: list[str]) -> None:
    locate.prepare()
    import workloads

    if argv[0] not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {argv[0]!r}")
    sizes = workloads.TINY if "--tiny" in argv[1:] else workloads.FULL
    cfg = workloads.experiment(0, sizes)
    if argv[0] != "plan_sweep":  # plan_sweep's plan is its measured work
        workloads.cli._plan(cfg)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv[1:])

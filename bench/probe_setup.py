"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is ``import memproj`` plus the program's own input construction
before the first projection: ``make_toy_problem`` for the toy workloads,
reading and parsing the config file for ``cli-custom``.

    python3 bench/probe_setup.py SRC_DIR WORKLOAD ARG
"""
import sys
import time


def main() -> None:
    src, workload, arg = sys.argv[1:4]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import memproj

    if workload == "cli-custom":
        from pathlib import Path

        path = Path(arg)
        memproj.parse_config(path.read_text(), base_dir=str(path.parent))
    else:
        for n in arg.split(","):
            memproj.make_toy_problem(memproj.ToyConfig(int(n)))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()

"""Record golden.json: the sha256 of stdout of every series and
enumerate op, keyed by its argv.

    python3 perfbench/record_golden.py

The digests pin the program's output byte for byte, so record them
only from a commit whose output is known to be right; the benchmark
then fails any later commit that prints something else.
"""

import json

from workloads import GOLDEN, enumerate_argvs, run_cli, series_argvs


def main():
    golden = {}
    for workload, argvs in (("series", series_argvs()), ("enumerate", enumerate_argvs())):
        table = golden[workload] = {}
        for argv in argvs:
            argv = [str(a) for a in argv]
            res = run_cli(argv, keep=False)
            if res.code != 0 or res.escaped:
                raise SystemExit(f"{' '.join(argv)}: exit {res.code} {res.escaped or ''}")
            table[" ".join(argv)] = res.sha256
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Time one fresh set-up: from a fresh interpreter to ready inputs.

    python3 perfbench/setup_probe.py SRC_DIR COMMAND:CONFIG [COMMAND:CONFIG ...]

The clock starts before ``import minkaehler`` (numpy comes in with it).  For
each ``verify`` config it loads the config, resolves and validates the seed
and builds the sample bundle; for each ``export`` config it loads the
config, resolves the seed and builds the slice chart and its points.  Prints
``{"setup_s": seconds}``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    sys.path.insert(0, argv[0])
    from minkaehler import cli
    from minkaehler.export import slice_chart, slice_from_json, slice_points

    for item in argv[1:]:
        command, path = item.split(":", 1)
        config = cli.load_config(path)
        if command == "verify":
            cli._bundle_from_config(config)
        else:
            spec = slice_from_json(config["export"])
            slice_points(slice_chart(cli.resolve_seed(config["seed"]), spec), spec)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

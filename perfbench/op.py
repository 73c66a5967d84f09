"""One benchmark operation in a fresh process.

    python3 op.py SRC_DIR RESULT_JSON CALLS_JSON

Times the import of ``otvelo.cli`` (set-up) and then the CLI calls listed in
CALLS_JSON, from the first call to ``otvelo.cli.main`` until the last one
returns; stops at the first nonzero exit code.  Writes set-up time, wall
time, exit codes and peak RSS to RESULT_JSON.  With an empty call list it
only measures set-up.
"""
import json
import resource
import sys
import time


def main() -> None:
    src_dir, result_path, calls_json = sys.argv[1:4]
    calls = json.loads(calls_json)
    sys.path.insert(0, src_dir)
    t0 = time.perf_counter()
    import otvelo.cli
    setup_s = time.perf_counter() - t0
    codes = []
    t1 = time.perf_counter()
    for argv in calls:
        codes.append(otvelo.cli.main(argv))
        if codes[-1] != 0:
            break
    wall_s = time.perf_counter() - t1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump({"setup_s": setup_s, "wall_s": wall_s, "codes": codes,
                   "peak_rss_mb": rss_mb}, fh)


if __name__ == "__main__":
    main()

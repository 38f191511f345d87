#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that:

  1. the oracle's corpus results agree with its Python transcription;
  2. a tiny-size pass of every workload, untraced and traced, is correct
     and emits exactly the metrics BENCHMARK.json names, each with its
     unit;
  3. a planted wrong expected result is caught: a corpus result for
     corpus-run, and a scheme text for daemon-mix.

Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, oracle=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    if oracle:
        cmd += ["--oracle", oracle]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_metrics(result, wanted, label):
    got = result["metrics"]
    missing = sorted(set(wanted) - set(got))
    extra = sorted(set(got) - set(wanted))
    assert not missing, f"{label}: missing metrics {missing}"
    assert not extra, f"{label}: metrics not in BENCHMARK.json {extra}"
    for name, unit in wanted.items():
        value = got[name]["value"]
        assert got[name]["unit"] == unit, \
            f"{label}: {name} has unit {got[name]['unit']}, want {unit}"
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            f"{label}: {name} = {value!r}"


def planted(build, name, edit):
    """A copy of the oracle with one expected result made wrong."""
    path = os.path.join(build, "selftest-oracle-" + name)
    shutil.rmtree(path, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "oracle"), path)
    edit(path)
    return path


def edit_json(path, change):
    with open(path) as f:
        doc = json.load(f)
    change(doc)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


def main():
    os.chdir(ROOT)
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                            or ".bench_build")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    subprocess.run([sys.executable,
                    os.path.join(HERE, "oracle", "transcription.py"),
                    "--check"], check=True)
    print("selftest: oracle agrees with its transcription")

    for w in bench["workloads"]:
        for trace, wanted in ((0, e2e), (1, layers)):
            label = f"{w['name']} trace={trace}"
            r = run(w["name"], trace)
            assert r["correct"] is True and r["failed"] == 0, \
                f"{label}: not correct: {r}"
            assert r["attempted"] >= 1, f"{label}: nothing attempted"
            check_metrics(r, wanted, label)
            print(f"selftest: {label}: correct, {len(wanted)} metrics "
                  f"with units")

    wrong = planted(build, "corpus", lambda d: edit_json(
        os.path.join(d, "corpus.json"),
        lambda doc: doc["results"].update(fib="46369")))
    r = run("corpus-run", 0, oracle=wrong)
    assert r["correct"] is False and r["failed"] >= 1, \
        f"planted corpus result not caught: {r}"
    print(f"selftest: planted wrong fib result caught "
          f"({r['failed']} of {r['attempted']} operations failed)")

    def break_scheme(doc):
        doc["schemes"][0][1] = doc["schemes"][0][1].replace("e2", "e9", 1)
    wrong = planted(build, "mix", lambda d: edit_json(
        os.path.join(d, "mix_family.json"), break_scheme))
    r = run("daemon-mix", 0, oracle=wrong)
    assert r["correct"] is False and r["failed"] >= 1, \
        f"planted scheme text not caught: {r}"
    print(f"selftest: planted wrong scheme text caught "
          f"({r['failed']} of {r['attempted']} operations failed)")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"selftest: FAIL {e}", file=sys.stderr)
        sys.exit(1)

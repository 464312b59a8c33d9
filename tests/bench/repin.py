"""Write what the failing pins of the last pytest run saw into ``pins.json``.

Takes no options, and prints a Markdown before/after table, one row per moved
pin, for CHANGES.md (EXPERIMENTS.md, "Statistical equivalence")::

    PYTHONPATH=src python -m pytest -q && python tests/bench/repin.py
"""

import json

from pins import PINS_PATH, RECORDS, dumps, field, load_pins

COLUMNS = ("committed", "aborted", "throughput_tps", "p99")


def show(run, key):
    if key == "aborted" and run.get("abort_reasons"):
        reasons = sorted(run["abort_reasons"].items())
        return f"{run[key]} (" + ", ".join(f"{r} {n}" for r, n in reasons) + ")"
    return f"{run[key]:.6g}" if isinstance(run[key], float) else str(run[key])


def cell(old, new, key):
    before, after = show(old, key), show(new, key)
    if before == after and old[key] != new[key]:    # moved below 6 digits
        before, after = repr(old[key]), repr(new[key])
    return after if before == after else f"{before} → {after}"


def row(name, before, observed):
    old = {**observed, **before}    # a field the pin lacks shows its new value
    cells = [cell(old, observed, key) for key in COLUMNS]
    others = [path for path in before if path not in COLUMNS + ("abort_reasons",)
              and field(observed, path) != before[path]]
    return (f"| {name}{'' if before else ' (new)'} | " + " | ".join(cells)
            + f" | {', '.join(others)} |")


def main():
    pins, rows = load_pins(), []
    for path in sorted(RECORDS.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        name, observed = record["name"], record["observed"]
        before = pins.get(name, {})
        rows.append(row(name, before, observed))
        pins[name] = {key: field(observed, key) for key in before or observed}
        path.unlink()
    if rows:
        PINS_PATH.write_text(dumps(pins), encoding="utf-8")
    print("| pin | committed | aborted (by reason) | tps | p99 (ms) | other moved "
          "fields |\n|---|---|---|---|---|---|\n" + "\n".join(rows)
          if rows else "No pin moved: pins.json is unchanged.")


if __name__ == "__main__":
    main()

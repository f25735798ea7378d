"""EXPERIMENTS.md generation: paper artifact vs regenerated artifact."""

import io

from repro.experiments.registry import EXPERIMENTS, run_all

_HEADER = """\
# EXPERIMENTS — paper vs measured

Paper: W. Bradley Rubenstein, *A Database Design for Musical
Information*, SIGMOD 1987.

This is an early design paper: its evaluation artifacts are **figures
1-15 and the figure 11 entity table**, not performance numbers.  Each
section below regenerates one artifact from the live system and lists
the structural checks that tie it to the paper's claims.  Performance
characteristics of the implementation are measured separately: by
`bench/run.py` (see `bench/README.md`) and by `scripts/bench_report.py`,
whose runs are the committed `BENCH_*.json` files.

Regenerate this file with:

    python -m repro.experiments.report
"""


def render_report(results=None):
    """Render the full EXPERIMENTS.md text."""
    if results is None:
        results = run_all()
    out = io.StringIO()
    out.write(_HEADER)
    passed = sum(1 for result in results if result.passed())
    out.write("\n**Status: %d/%d experiments pass all checks.**\n" % (
        passed, len(results)))
    for result in results:
        _, paper_description = EXPERIMENTS[result.experiment_id]
        out.write("\n---\n\n")
        out.write("## %s — %s\n\n" % (result.experiment_id, result.title))
        out.write("**Paper artifact:** %s.\n\n" % paper_description)
        if result.notes:
            out.write("**Substitutions/notes:** %s\n\n" % result.notes)
        out.write("**Checks:**\n\n")
        for name in sorted(result.checks):
            mark = "x" if result.checks[name] else " "
            out.write("- [%s] %s\n" % (mark, name.replace("_", " ")))
        out.write("\n**Regenerated artifact:**\n\n")
        out.write("```text\n")
        out.write(result.artifact.rstrip("\n"))
        out.write("\n```\n")
    return out.getvalue()


def write_report(path="EXPERIMENTS.md", results=None):
    text = render_report(results)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def main():
    results = run_all()
    path = write_report(results=results)
    for result in results:
        status = "ok  " if result.passed() else "FAIL"
        print("%s %s %s" % (status, result.experiment_id, result.title))
    print("wrote %s" % path)
    if not all(result.passed() for result in results):
        raise SystemExit(1)


if __name__ == "__main__":
    main()

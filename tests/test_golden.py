"""Frozen CLI outputs, compared byte for byte.

Each case runs one subcommand in both report formats on a structure file
emitted from the catalog and compares stdout and the exit code with the files
under tests/golden/.  After a change that is meant to alter an output, rewrite
the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from crossed_poisson import catalog, cli

GOLDEN = pathlib.Path(__file__).with_name("golden")


def _gamma(n, a=None):
    return catalog.gamma_n_family(n, 1, a=a)


def _cases():
    """(name, argv, entry builder) for every frozen output."""
    out = [
        ("solve_b_gamma1", ["solve-b"], lambda: _gamma(1)),
        ("solve_b_gamma1_linear_a", ["solve-b"], lambda: _gamma(1, a=1)),
        ("solve_b_gamma2", ["solve-b"], lambda: _gamma(2)),
        ("pbw_gamma2", ["pbw"], lambda: _gamma(2)),
    ]
    for variant in (1, 2):
        out.append((f"cohomology_z2_r3_linear_v{variant}",
                    ["cohomology", "--degree", "2", "--polydeg", "5"],
                    lambda v=variant: catalog.z2_r3_linear(v)))
    for i in range(len(catalog.demo_entries())):
        out.append((f"check_bg_demo{i}", ["check-bg"],
                    lambda i=i: catalog.demo_entries()[i]))
    return out


CASES = _cases()


def run_case(argv, entry, fmt):
    """Exit code and stdout of one CLI run on an entry's structure file."""
    text = cli.emit_structure_file(entry.structure)
    stdout = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv + ["--format", fmt])
    finally:
        sys.stdin = old_stdin
    return f"exit {code}\n" + stdout.getvalue()


def _path(name, fmt):
    return GOLDEN / f"{name}.{'json' if fmt == 'json' else 'txt'}"


@pytest.mark.parametrize("name, argv, build", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, build):
    entry = build()
    for fmt in ("text", "json"):
        expected = _path(name, fmt).read_text(encoding="utf-8")
        assert run_case(argv, entry, fmt) == expected, (name, fmt)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, build in CASES:
        entry = build()
        for fmt in ("text", "json"):
            _path(name, fmt).write_text(run_case(argv, entry, fmt), encoding="utf-8")
            print("wrote", _path(name, fmt))

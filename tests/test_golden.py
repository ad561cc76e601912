"""Frozen CLI outputs, compared byte for byte.

Each case runs one subcommand in both report formats, on a structure file
emitted from the catalog, on a hand-written file, or on no input at all, and
compares the exit code, stdout and any stderr with the files under
tests/golden/.  After a change that is meant to alter an output, rewrite the
files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.  With --check the script compares every case byte for
byte instead, writes nothing, and exits 1 naming each differing file and each
file under tests/golden/ that no case writes (an orphan, left by a renamed or
dropped case); it needs no pytest, so it runs on any interpreter that can
import the package.
"""

import argparse
import contextlib
import io
import json
import pathlib
import sys

from crossed_poisson import catalog, cli

GOLDEN = pathlib.Path(__file__).with_name("golden")


def _gamma(n, a=None):
    return catalog.gamma_n_family(n, 1, a=a)


def _emitted(build):
    """A stdin builder: the structure file of a catalog entry."""
    return lambda: cli.emit_structure_file(build().structure)


def _without_b(build):
    """A stdin builder: an entry's structure file with its constant terms cut."""
    def text():
        doc = cli.structure_doc(build().structure)
        doc["structure"] = [t for t in doc["structure"] if t["poly"] != "1"]
        return json.dumps(doc)
    return text


def _doc(doc):
    """A stdin builder: a hand-written structure file."""
    return lambda: json.dumps(doc)


def _no_input():
    return ""


# x0 e0^e1 at the identity is not invariant under the flip diag(-1, -1, 1)
NON_INVARIANT = {
    "conductor": 1, "dimension": 3,
    "generators": [[[-1, 0, 0], [0, -1, 0], [0, 0, 1]]],
    "structure": [{"label": "e", "poly": "x0", "wedge": [0, 1], "coeff": "1"}],
    "hbar_weights": [1, 2],
}

# integer fields spelled as JSON booleans, which Python reads as 0 and 1:
# broken input, exit 2
BOOLEAN_INTEGERS = {
    "conductor": True, "dimension": 2,
    "generators": [[[False, True], [True, False]]],
    "structure": [{"label": "e", "poly": "1", "wedge": [False, True], "coeff": "1"}],
    "hbar_weights": [True, 2],
}

# x2 e0^e1 + x1 e1^e2 is invariant but fails the Jacobi identity
NON_POISSON = {
    "conductor": 1, "dimension": 3,
    "generators": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
    "structure": [
        {"label": "e", "poly": "x2", "wedge": [0, 1], "coeff": "1"},
        {"label": "e", "poly": "x1", "wedge": [1, 2], "coeff": "1"},
    ],
}

# at conductor 1 the root z is the number 1, which a file must spell out:
# broken input, exit 2
Z_AT_CONDUCTOR_1 = {
    "conductor": 1, "dimension": 2,
    "generators": [[[-1, 0], [0, -1]]],
    "structure": [{"label": "g0", "poly": "1", "wedge": [0, 1], "coeff": "z"}],
}

COHOMOLOGY_SMALL = ["cohomology", "--degree", "1", "--polydeg", "2"]


def _cases():
    """(name, argv, stdin builder) for every frozen output."""
    out = [
        ("solve_b_gamma1", ["solve-b"], _emitted(lambda: _gamma(1))),
        ("solve_b_gamma1_linear_a", ["solve-b"], _emitted(lambda: _gamma(1, a=1))),
        ("solve_b_gamma2", ["solve-b"], _emitted(lambda: _gamma(2))),
        ("pbw_gamma2", ["pbw"], _emitted(lambda: _gamma(2))),
        ("pbw_gamma1_without_b", ["pbw"], _without_b(lambda: _gamma(1))),
    ]
    for variant in (1, 2):
        out.append((f"cohomology_z2_r3_linear_v{variant}",
                    ["cohomology", "--degree", "2", "--polydeg", "5"],
                    _emitted(lambda v=variant: catalog.z2_r3_linear(v))))
    for i, entry in enumerate(catalog.demo_entries()):
        demo = _emitted(lambda i=i: catalog.demo_entries()[i])
        out.append((f"check_bg_demo{i}", ["check-bg"], demo))
        out.append((f"check_bg_zero_b_demo{i}", ["check-bg", "--zero-b"], demo))
        out.append((f"verify_poisson_demo{i}", ["verify-poisson"], demo))
        out.append((f"solve_b_demo{i}", ["solve-b"], demo))
        out.append((f"pbw_demo{i}", ["pbw"], demo))
        if entry.name != "gamma_n_family":   # 14 s at this cap
            out.append((f"cohomology_demo{i}", COHOMOLOGY_SMALL, demo))
    non_invariant = _doc(NON_INVARIANT)
    for command in ("check-bg", "pbw", "solve-b", "verify-poisson"):
        out.append((f"{command.replace('-', '_')}_non_invariant", [command],
                    non_invariant))
    out.append(("cohomology_non_invariant", COHOMOLOGY_SMALL, non_invariant))
    out.append(("verify_poisson_non_poisson", ["verify-poisson"],
                _doc(NON_POISSON)))
    out.append(("cohomology_non_poisson", COHOMOLOGY_SMALL, _doc(NON_POISSON)))
    out += [
        ("star_n3", ["star", "--n", "3", "Z*Zb", "g", "Z"], _no_input),
        ("center_n2", ["center", "--n", "2", "Z*Zb"], _no_input),
        ("center_n3_not_invariant", ["center", "--n", "3", "Z"], _no_input),
        ("center_n2_route_d_z", ["center", "--n", "2", "--route", "d_z", "Z*Zb"],
         _no_input),
        ("center_relation_n3", ["center-relation", "--n", "3"], _no_input),
        ("catalog_gamma1", ["catalog", "gamma_n", "--n", "1", "--c0", "1"],
         _no_input),
        ("catalog_gamma1_symbol_error",
         ["catalog", "gamma_n", "--n", "1", "--c0", "z^2+1/2"], _no_input),
        ("center_relation_n1_error", ["center-relation", "--n", "1"], _no_input),
        ("check_bg_broken_json", ["check-bg"], lambda: "{broken"),
        ("check_bg_boolean_integers", ["check-bg"], _doc(BOOLEAN_INTEGERS)),
        ("check_bg_z_at_conductor_1", ["check-bg"], _doc(Z_AT_CONDUCTOR_1)),
        ("cohomology_degree3_error", ["cohomology", "--degree", "3", "--polydeg", "2"],
         _emitted(lambda: catalog.z2_r3_linear(1))),
    ]
    return out


CASES = _cases()


def run_case(argv, stdin, fmt):
    """Exit code, stdout and any stderr of one CLI run on the given stdin."""
    stdout, stderr = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--format", fmt])
    finally:
        sys.stdin = old_stdin
    out = f"exit {code}\n" + stdout.getvalue()
    if stderr.getvalue():
        out += "stderr:\n" + stderr.getvalue()
    return out


def _path(name, fmt):
    return GOLDEN / f"{name}.{'json' if fmt == 'json' else 'txt'}"


def pytest_generate_tests(metafunc):
    if metafunc.function is test_golden_output:
        metafunc.parametrize("name, argv, build", CASES,
                             ids=[c[0] for c in CASES])


def orphans():
    """The files under tests/golden/ that no case writes, sorted."""
    written = {_path(name, fmt) for name, _, _ in CASES for fmt in ("text", "json")}
    return sorted(path for path in GOLDEN.iterdir() if path not in written)


def test_golden_output(name, argv, build):
    stdin = build()
    for fmt in ("text", "json"):
        expected = _path(name, fmt).read_text(encoding="utf-8")
        assert run_case(argv, stdin, fmt) == expected, (name, fmt)


def test_every_golden_file_belongs_to_a_case():
    assert orphans() == []


def main(args):
    parser = argparse.ArgumentParser(
        description="Rewrite the golden CLI outputs, or compare them.")
    parser.add_argument("--check", action="store_true",
                        help="compare every case byte for byte and write "
                             "nothing; exit 1 naming each differing file "
                             "and each golden file no case writes")
    check = parser.parse_args(args).check
    if not check:
        GOLDEN.mkdir(exist_ok=True)
    differing = []
    for name, argv, build in CASES:
        stdin = build()
        for fmt in ("text", "json"):
            path = _path(name, fmt)
            out = run_case(argv, stdin, fmt).encode("utf-8")
            if not check:
                path.write_bytes(out)
                print("wrote", path)
            elif not path.is_file() or path.read_bytes() != out:
                differing.append(path)
                print("differs", path)
    stale = orphans() if check else []
    for path in stale:
        print("orphan", path)
    if check:
        print(f"{len(CASES)} cases, {2 * len(CASES)} files, "
              f"{len(differing)} differing"
              + (f", {len(stale)} orphaned" if stale else ""))
    return 1 if differing or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

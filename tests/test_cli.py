import io
import json
import random
import re

import pytest

from conftest import sl2_order3_pair
from crossed_poisson import catalog, cli, pbw, qmoyal
from crossed_poisson.scalars import Cyclotomic, Q, root_of_unity
from crossed_poisson.cli import (
    InputError,
    LiteralError,
    emit_structure_file,
    monomial_literal,
    parse_monomial,
    parse_scalar,
    parse_star_expression,
    parse_structure_file,
)


@pytest.fixture
def invoke(capsys, monkeypatch):
    def run(argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


# -- literal grammar -----------------------------------------------------------

def test_scalar_literal_frozen_cases():
    assert parse_scalar("1/2*z^3 - 2", 12) == (
        root_of_unity(12, 3) * Q(1, 2) - Cyclotomic.rational(12, 2))
    assert parse_scalar("-z", 4) == -root_of_unity(4, 1)
    assert parse_scalar("(1 + z)^2", 3) == (
        Cyclotomic.one(3) + root_of_unity(3, 1)) ** 2
    assert parse_scalar("0", 8).is_zero()


def test_scalar_literal_round_trips_emission():
    rng = random.Random(7)
    for _ in range(40):
        vec = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
        value = sum(
            (Cyclotomic.rational(12, c) * root_of_unity(12, k)
             for k, c in enumerate(vec)),
            Cyclotomic.zero(12))
        assert parse_scalar(value.to_literal(), 12) == value


def test_scalar_literal_errors_carry_the_column():
    with pytest.raises(LiteralError, match="column 5"):
        parse_scalar("1 + %", 4)
    with pytest.raises(LiteralError, match="division by zero"):
        parse_scalar("1/(z^4 - 1)", 4)
    with pytest.raises(LiteralError, match="only 'z' is scalar"):
        parse_scalar("h", 4)
    with pytest.raises(LiteralError, match="empty"):
        parse_scalar("   ", 4)
    with pytest.raises(LiteralError, match="unbalanced"):
        parse_scalar("(1 + z", 4)


def test_star_expression_evaluation():
    n = 3
    w = qmoyal.center_lift(qmoyal.QPoly.monomial(n, 1, 1), n)
    assert parse_star_expression(w.to_literal(), n) == w
    # the crossed product is noncommutative: g Z = q Z g with q = zeta_3
    assert parse_star_expression("g*Z", n) == parse_star_expression("z^4*Z*g", n)
    assert parse_star_expression("g*Z", n) != parse_star_expression("Z*g", n)
    with pytest.raises(LiteralError, match="nonzero scalar"):
        parse_star_expression("Z/Zb", n)
    with pytest.raises(LiteralError, match="expected Z, Zb, g"):
        parse_star_expression("Q", n)


def test_star_expression_round_trips_random_elements():
    rng = random.Random(23)
    for n in (2, 3, 5):
        for _ in range(8):
            terms = {}
            for _ in range(4):
                key = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, n - 1))
                terms[key] = cli.HScalar.h_power(
                    qmoyal.QPoly.one(n).M, rng.randint(0, 2),
                    Cyclotomic.rational(qmoyal.QPoly.one(n).M,
                                        Q(rng.randint(-5, 5), rng.randint(1, 3))))
            value = qmoyal.QPoly(n, terms)
            assert parse_star_expression(value.to_literal(), n) == value


def test_monomial_literals():
    assert parse_monomial("1", 3) == (0, 0, 0)
    assert parse_monomial("x0^2*x1", 3) == (2, 1, 0)
    assert parse_monomial("x2*x2", 3) == (0, 0, 2)
    assert monomial_literal((2, 1, 0)) == "x0^2*x1"
    assert monomial_literal((0, 0, 0)) == "1"
    assert parse_monomial(monomial_literal((0, 4, 1)), 3) == (0, 4, 1)
    with pytest.raises(LiteralError, match="exceeds dimension"):
        parse_monomial("x5", 3)
    with pytest.raises(LiteralError, match="expected a variable"):
        parse_monomial("2*x0", 3)
    with pytest.raises(LiteralError, match="dangling"):
        parse_monomial("x0*", 3)


# -- structure files -----------------------------------------------------------

def test_every_demo_entry_round_trips_with_same_verdict():
    for entry in catalog.demo_entries():
        text = emit_structure_file(entry.structure)
        pair = parse_structure_file(text)
        assert emit_structure_file(pair) == text
        assert pair.group.order == entry.group.order
        assert pair.pi == entry.structure.pi
        assert pair.b == entry.structure.b


def test_round_trip_keeps_the_flatness_verdict():
    for make in (lambda: catalog.z2_constant(Q(1, 2)),
                 lambda: catalog.gamma_n_family(1, 1)):
        original = make().structure
        parsed = parse_structure_file(emit_structure_file(original))
        assert pbw.check_bg(parsed).passed == pbw.check_bg(original).passed


def test_structure_file_validation_messages():
    good = emit_structure_file(catalog.z2_constant(1).structure)
    doc = json.loads(good)

    def reject(mutate, match):
        bad = json.loads(good)
        mutate(bad)
        with pytest.raises(InputError, match=match):
            parse_structure_file(json.dumps(bad))

    with pytest.raises(InputError, match="line 1 column"):
        parse_structure_file("{oops")
    reject(lambda d: d.pop("conductor"), "missing field 'conductor'")
    reject(lambda d: d.update(dimension=0), "positive integer")
    reject(lambda d: d.update(generators=[]), "at least one matrix")
    reject(lambda d: d["generators"].append([[1]]), "not a 2x2 matrix")
    reject(lambda d: d["structure"][0].update(label="g9"), "unknown generator")
    for label in ("g0^x", "g0^1^2", "g"):
        reject(lambda d: d["structure"][0].update(label=label),
               f"bad word chunk '{re.escape(label)}'")
    reject(lambda d: d["structure"][0].update(wedge=[0, 0]), "distinct")
    reject(lambda d: d["structure"][0].update(wedge=[0, 5]), "lie in 0..1")
    reject(lambda d: d["structure"][0].update(poly="x0^2"), "degree 2")
    reject(lambda d: d.update(hbar_weights=[1]), "two positive integers")
    reject(lambda d: d.update(reality_swap=[0, 0]), "permutation")
    # JSON true and false are Python ints, but no integer field takes them
    reject(lambda d: d.update(conductor=True), "'conductor' must be a positive")
    reject(lambda d: d.update(dimension=True), "'dimension' must be a positive")
    reject(lambda d: d["generators"][0][0].__setitem__(1, False),
           "entries must be integers")
    reject(lambda d: d["structure"][0].update(wedge=[False, True]), "lie in 0..1")
    reject(lambda d: d.update(hbar_weights=[True, 2]), "two positive integers")
    reject(lambda d: d.update(reality_swap=[True, False]), "permutation")
    assert doc["conductor"] == 1


def test_conductor_cap_env_var(monkeypatch):
    text = emit_structure_file(catalog.gamma_n_family(1, 1).structure)
    monkeypatch.setenv(cli.CONDUCTOR_CAP_VAR, "10")
    with pytest.raises(InputError, match="exceeds the cap"):
        parse_structure_file(text)
    monkeypatch.setenv(cli.CONDUCTOR_CAP_VAR, "twelve")
    with pytest.raises(InputError, match="must be an integer"):
        parse_structure_file(text)


def test_group_order_guard():
    text = emit_structure_file(catalog.gamma_n_family(1, 1).structure)
    with pytest.raises(InputError, match="exceeds bound"):
        parse_structure_file(text, max_group_order=3)


# -- subcommands ---------------------------------------------------------------

def test_catalog_pipes_into_check_bg(invoke):
    code, emitted, _ = invoke(["catalog", "gamma_n", "--n", "1", "--c0", "1"])
    assert code == 0
    code, out, _ = invoke(["check-bg"], stdin=emitted)
    assert code == 0
    assert "verdict: pass" in out


def test_check_bg_zero_b_fails_at_rotation_labels(invoke):
    _, emitted, _ = invoke(["catalog", "gamma_n", "--n", "1", "--c0", "1"])
    code, out, _ = invoke(["check-bg", "--zero-b"], stdin=emitted)
    assert code == 1
    assert "bg2 jacobi coboundary match: fail" in out
    labels = {line.split()[1] for line in out.splitlines()
              if line.startswith("  at ")}
    assert labels == {"g0", "g0^2"}


def test_check_bg_reports_are_deterministic(invoke):
    _, emitted, _ = invoke(["catalog", "gamma_n", "--n", "1", "--c0", "1"])
    first = invoke(["check-bg", "--zero-b"], stdin=emitted)
    second = invoke(["check-bg", "--zero-b"], stdin=emitted)
    assert first == second


def test_solve_b_recovers_a_correction(invoke):
    _, emitted, _ = invoke(["catalog", "gamma_n", "--n", "1", "--c0", "1"])
    doc = json.loads(emitted)
    doc["structure"] = [t for t in doc["structure"] if t["poly"] != "1"]
    code, out, _ = invoke(["solve-b", "--format", "json"], stdin=json.dumps(doc))
    assert code == 0
    payload = json.loads(out)
    assert payload["solvable"] is True and payload["confirmed"] is True
    assert payload["solved_b"]
    # the emitted structure file must itself parse and pass
    text = json.dumps(payload["structure_file"])
    assert pbw.check_bg(parse_structure_file(text)).passed


def test_pbw_certificate_on_a_flat_pair(invoke):
    _, emitted, _ = invoke(["catalog", "z2_constant", "--c", "1"])
    code, out, _ = invoke(["pbw"], stdin=emitted)
    assert code == 0
    assert "overlap confluence: pass" in out
    assert "normal monomial counts through degree 0..3: 2, 6, 12, 20" in out
    assert "verdict: flat" in out


def test_verify_poisson_failure_prints_residues(invoke):
    bad = {
        "conductor": 1, "dimension": 3,
        "generators": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
        "structure": [
            {"label": "e", "poly": "x2", "wedge": [0, 1], "coeff": "1"},
            {"label": "e", "poly": "x1", "wedge": [1, 2], "coeff": "1"},
        ],
    }
    code, out, _ = invoke(["verify-poisson"], stdin=json.dumps(bad))
    assert code == 1
    assert "verdict: not poisson" in out
    assert '"wedge": [0, 1, 2]' in out


def test_star_subcommand(invoke):
    code, out, _ = invoke(["star", "--n", "2", "Z", "Zb"])
    assert code == 0
    assert out == "result: Z*Zb + 1/2*z*h*g\n"
    code, out, _ = invoke(["star", "--format", "json", "--n", "2", "Zb", "Z"])
    assert json.loads(out)["result"] == "Z*Zb"


def test_center_subcommand(invoke):
    code, out, _ = invoke(["center", "--n", "2", "Z*Zb"])
    assert code == 0
    assert "commutes with the generators: pass" in out
    code, out, _ = invoke(["center", "--n", "3", "Z"])
    assert code == 1
    assert "not rotation-invariant" in out


def test_center_relation_subcommand(invoke):
    code, out, _ = invoke(["center-relation", "--n", "2"])
    assert code == 0
    assert "relation constant: 1/16*h^2" in out
    code, out, _ = invoke(["center-relation", "--format", "json", "--n", "4"])
    assert json.loads(out)["constant"] == "1/64*h^4"
    code, _, err = invoke(["center-relation", "--n", "1"])
    assert code == 2 and "error:" in err


def test_cohomology_subcommand(invoke):
    _, emitted, _ = invoke(["catalog", "z2_r3_linear", "--variant", "1"])
    code, out, _ = invoke(
        ["cohomology", "--degree", "0", "--polydeg", "3"], stdin=emitted)
    assert code == 0
    assert "cohomology dimension: 4" in out
    assert '{"label": "e", "poly": "x2^3", "wedge": [], "coeff": "1"}' in out
    code, _, err = invoke(
        ["cohomology", "--degree", "3", "--polydeg", "2"], stdin=emitted)
    assert code == 2


def test_cohomology_of_a_non_monomial_group_action(invoke):
    emitted = emit_structure_file(sl2_order3_pair())
    payloads = []
    for degree in ("0", "1", "2"):
        code, out, err = invoke(["cohomology", "--format", "json", "--degree",
                                 degree, "--polydeg", "2"], stdin=emitted)
        assert code == 0, err
        payloads.append(json.loads(out))
    assert [p["dimension"] for p in payloads] == [2, 0, 6]
    # H^0 holds the constants and the invariant Casimir
    assert [{t["poly"] for t in terms} for terms in payloads[0]["representatives"]] \
        == [{"1"}, {"x2^2", "x0*x1"}]


def test_cohomology_json_payload(invoke):
    _, emitted, _ = invoke(["catalog", "z2_constant", "--c", "1"])
    code, out, _ = invoke(
        ["cohomology", "--format", "json", "--degree", "2", "--polydeg", "2"],
        stdin=emitted)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_kernel"] == 5
    assert payload["dim_image"] == 1
    assert payload["dimension"] == 4
    assert payload["boundaries"] == [[
        {"label": "g0", "poly": "1", "wedge": [0, 1], "coeff": "1"}]]


def test_input_errors_exit_two(invoke):
    code, _, err = invoke(["check-bg"], stdin="{broken")
    assert code == 2 and "line 1 column" in err
    code, _, err = invoke(["catalog", "nope"])
    assert code == 2 and "unknown catalog entry" in err
    code, _, err = invoke(["catalog", "gamma_n", "--n", "2", "--c0", "1", "--a", "1"])
    assert code == 2 and "cube" in err
    code, _, err = invoke(["star", "--n", "2", "Z +* Zb"])
    assert code == 2 and "column" in err
    code, _, err = invoke(["star", "--n", "0", "Z"])
    assert code == 2


def test_catalog_parameters_refuse_symbols(invoke):
    # parameters are rational; z over the trivial field would read as 1
    for flag, raw, column in (("--c0", "z", 1), ("--c0", "z^2+1/2", 1),
                              ("--c0", "1/2 + z", 7)):
        code, out, err = invoke(["catalog", "gamma_n", "--n", "1", flag, raw])
        assert code == 2 and not out
        assert f"{flag}: column {column}: unknown symbol 'z'" in err
    code, _, err = invoke(["catalog", "z2_constant", "--c", "2*z"])
    assert code == 2 and "column 3" in err
    code, out, _ = invoke(["catalog", "gamma_n", "--n", "1", "--c0", "3/2"])
    assert code == 0 and '"3/2"' in out


def test_negative_catalog_parameters_need_no_equals_sign(invoke):
    for argv, flag, raw in ((["gamma_n", "--n", "1"], "--c0", "-3/4"),
                            (["gamma_n", "--n", "1", "--c0", "1"], "--a", "-1/2"),
                            (["z2_constant"], "--c", "-2")):
        spaced = invoke(["catalog", *argv, flag, raw])
        assert spaced == invoke(["catalog", *argv, f"{flag}={raw}"])
        assert spaced[0] == 0 and spaced[1] and not spaced[2]


def test_z_is_refused_where_it_is_rational(invoke):
    # at conductors 1 and 2 the root z is 1 or -1, which a file should spell out
    for M in (1, 2):
        with pytest.raises(LiteralError,
                           match=f"column 3: 'z' is rational at conductor {M}"):
            parse_scalar("2*z", M)
    assert parse_scalar("-1", 2) == root_of_unity(2, 1)
    doc = {"conductor": 1, "dimension": 2,
           "generators": [[[-1, 0], [0, -1]]],
           "structure": [{"label": "g0", "poly": "1", "wedge": [0, 1],
                          "coeff": "z"}]}
    code, out, err = invoke(["check-bg"], stdin=json.dumps(doc))
    assert code == 2 and not out
    assert "structure term 0: column 1: 'z' is rational at conductor 1" in err


def test_non_invertible_generator_exits_two(invoke):
    # the zero matrix closes into the monoid {I, 0}, not a group
    doc = {"conductor": 1, "dimension": 2,
           "generators": [[["0", "0"], ["0", "0"]]],
           "structure": [{"label": "e", "poly": "1", "wedge": [0, 1],
                          "coeff": "1"}]}
    for fmt in ("text", "json"):
        code, out, err = invoke(["check-bg", "--format", fmt],
                                stdin=json.dumps(doc))
        assert code == 2
        assert "generator 0 is not invertible" in err
        assert out == ""


def test_solve_b_reports_non_invariant_pi(invoke):
    # x0 e0^e1 at the identity is not invariant under diag(-1, -1, 1)
    doc = {"conductor": 1, "dimension": 3,
           "generators": [[[-1, 0, 0], [0, -1, 0], [0, 0, 1]]],
           "structure": [{"label": "e", "poly": "x0", "wedge": [0, 1],
                          "coeff": "1"}],
           "hbar_weights": [1, 2]}
    # both formats carry the same message
    message = "linear part pi is not group-invariant"
    code, out, err = invoke(["solve-b"], stdin=json.dumps(doc))
    assert code == 1 and err == ""
    assert out == f"invariance: fail ({message})\n"
    code, out, _ = invoke(["solve-b", "--format", "json"],
                          stdin=json.dumps(doc))
    assert code == 1
    assert json.loads(out) == {"command": "solve-b", "invariant": False,
                               "error": message}

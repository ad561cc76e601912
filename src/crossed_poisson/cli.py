"""Command line interface: JSON structure files in, exact reports out.

A structure file describes a finite matrix group together with a linear and
a constant 2-field over it.  Matrix entries and term coefficients use the
scalar literal grammar (`1/2*z^3 - 2`, `z` the canonical root of unity);
group labels are words in the generators (`e`, `g0*g1^2`); polynomial parts
are monomial literals (`1`, `x0^2*x1`).  Star-product subcommands instead
take algebra expressions over the variables `Z`, `Zb`, `g` with the same
scalar grammar (`h` is the deformation parameter).

Exit codes: 0 when every check passes, 1 when a mathematical check fails
(the exact residues are printed in structure-file term syntax), 2 for
malformed input or unsupported parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from math import lcm

from .scalars import Cyclotomic, HScalar, root_of_unity
from . import groups
from .polyvec import (
    InvarianceError,
    PolyVectorField,
    StructurePair,
    UnsupportedStructureError,
    is_poisson,
)
from . import pbw
from . import catalog as catalog_mod
from . import qmoyal
from .cohom import NotPoissonError, h_truncated

CONDUCTOR_CAP_VAR = "CROSSED_POISSON_MAX_CONDUCTOR"
DEFAULT_CONDUCTOR_CAP = 256
DEFAULT_GROUP_ORDER_CAP = 512


class InputError(ValueError):
    """Malformed input or unsupported parameters; maps to exit code 2."""


def conductor_cap():
    raw = os.environ.get(CONDUCTOR_CAP_VAR)
    if raw is None:
        return DEFAULT_CONDUCTOR_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"{CONDUCTOR_CAP_VAR} must be an integer, got {raw!r}")
    if cap < 1:
        raise InputError(f"{CONDUCTOR_CAP_VAR} must be positive, got {cap}")
    return cap


# ---------------------------------------------------------------------------
# literal grammar: tokens and recursive descent
# ---------------------------------------------------------------------------

class LiteralError(InputError):
    """A literal failed to parse; the message carries the column."""

    def __init__(self, text, pos, message):
        self.column = pos + 1
        super().__init__(f"column {self.column}: {message} in {text!r}")


_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LiteralError(text, pos, f"unexpected character {text[pos]!r}")
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), pos))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), pos))
        else:
            tokens.append(("op", m.group(3), pos))
        pos = m.end()
    return tokens


class _Parser:
    """Shared expression parser; the domain supplies values and operations.

    expr   := sign* term ((+|-) term)*
    term   := factor ((*|/) factor)*
    factor := primary (^ int)?
    primary:= int | name | ( expr )
    """

    def __init__(self, text, domain):
        self.text = text
        self.domain = domain
        self.tokens = _tokenize(text)
        self.k = 0

    def parse(self):
        if not self.tokens:
            raise LiteralError(self.text, 0, "empty expression")
        try:
            value = self._expr()
        except RecursionError:
            raise LiteralError(self.text, 0, "expression nested too deeply") from None
        if self.k < len(self.tokens):
            _, tok, pos = self.tokens[self.k]
            raise LiteralError(self.text, pos, f"unexpected {tok!r}")
        return value

    def _peek_op(self, *ops):
        if self.k < len(self.tokens):
            kind, tok, _ = self.tokens[self.k]
            if kind == "op" and tok in ops:
                return tok
        return None

    def _signed_term(self):
        negate = False
        while True:
            op = self._peek_op("+", "-")
            if op is None:
                break
            self.k += 1
            if op == "-":
                negate = not negate
        value = self._term()
        return self.domain.neg(value) if negate else value

    def _expr(self):
        value = self._signed_term()
        while True:
            op = self._peek_op("+", "-")
            if op is None:
                return value
            self.k += 1
            rhs = self._term()
            value = (self.domain.sub if op == "-" else self.domain.add)(value, rhs)

    def _term(self):
        value = self._factor()
        while True:
            op = self._peek_op("*", "/")
            if op is None:
                return value
            self.k += 1
            pos = self.tokens[self.k - 1][2]
            rhs = self._factor()
            if op == "*":
                value = self.domain.mul(value, rhs)
            else:
                value = self.domain.div(value, rhs, self.text, pos)

    def _factor(self):
        value = self._primary()
        if self._peek_op("^"):
            self.k += 1
            if self.k >= len(self.tokens) or self.tokens[self.k][0] != "int":
                pos = self.tokens[self.k - 1][2]
                raise LiteralError(self.text, pos, "exponent must be a nonnegative integer")
            value = self.domain.power(value, self.tokens[self.k][1])
            self.k += 1
        return value

    def _primary(self):
        if self.k >= len(self.tokens):
            raise LiteralError(self.text, len(self.text), "unexpected end of expression")
        kind, tok, pos = self.tokens[self.k]
        if kind == "int":
            self.k += 1
            return self.domain.number(tok)
        if kind == "name":
            self.k += 1
            return self.domain.name(tok, self.text, pos)
        if tok == "(":
            self.k += 1
            value = self._expr()
            if not self._peek_op(")"):
                raise LiteralError(self.text, pos, "unbalanced parenthesis")
            self.k += 1
            return value
        raise LiteralError(self.text, pos, f"unexpected {tok!r}")


class _Domain:
    """Shared ring operations; subclasses supply number, name, power and div."""

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a


class _CyclotomicDomain(_Domain):
    """Values are elements of the fixed cyclotomic field; `z` is the root."""

    def __init__(self, M):
        self.M = M

    def number(self, k):
        return Cyclotomic.rational(self.M, k)

    def name(self, sym, text, pos):
        if sym != "z":
            raise LiteralError(text, pos, f"unknown symbol {sym!r} (only 'z' is scalar)")
        z = root_of_unity(self.M, 1)
        if self.M <= 2:
            raise LiteralError(text, pos, f"'z' is rational at conductor {self.M} "
                                          f"(write {z.to_literal()})")
        return z

    def power(self, a, k):
        return a ** k

    def div(self, a, b, text, pos):
        if b.is_zero():
            raise LiteralError(text, pos, "division by zero")
        return a * b.invert()


class _StarDomain(_Domain):
    """Values are crossed-product elements over Z/n with Z, Zb, g, h, z."""

    def __init__(self, n):
        self.n = n
        self.M = qmoyal.QPoly.one(n).M

    def number(self, k):
        return qmoyal.QPoly.monomial(self.n, 0, 0, 0, k)

    def name(self, sym, text, pos):
        if sym == "Z":
            return qmoyal.QPoly.z(self.n)
        if sym == "Zb":
            return qmoyal.QPoly.zbar(self.n)
        if sym == "g":
            return qmoyal.QPoly.rotation(self.n)
        if sym == "z":
            return qmoyal.QPoly.one(self.n).scale(root_of_unity(self.M, 1))
        if sym == "h":
            return qmoyal.QPoly.one(self.n).scale(HScalar.h_power(self.M, 1))
        raise LiteralError(text, pos,
                           f"unknown symbol {sym!r} (expected Z, Zb, g, z, or h)")

    def power(self, a, k):
        out = qmoyal.QPoly.one(self.n)
        while k:
            if k & 1:
                out = out * a
            a = a * a if k > 1 else a
            k >>= 1
        return out

    def div(self, a, b, text, pos):
        scalar = self._constant(b)
        if scalar is None or scalar.is_zero():
            raise LiteralError(text, pos, "can only divide by a nonzero scalar")
        return a.scale(scalar.invert())

    @staticmethod
    def _constant(value):
        if set(value.terms) != {(0, 0, 0)}:
            return None
        hs = value.terms[(0, 0, 0)]
        if hs.degree() > 0:
            return None
        return hs.coeff(0)


class _RationalDomain(_CyclotomicDomain):
    """Rationals as Q(zeta_1), refusing every symbol: z would read as 1."""

    def __init__(self):
        super().__init__(1)

    def name(self, sym, text, pos):
        raise LiteralError(text, pos, f"unknown symbol {sym!r} (parameters are rational)")


def parse_scalar(text, M):
    return _Parser(text, _CyclotomicDomain(M)).parse()


def parse_star_expression(text, n):
    return _Parser(text, _StarDomain(n)).parse()


def parse_monomial(text, dim):
    """A monomial literal: `1` or a product of x<i> powers like `x0^2*x1`."""
    tokens = _tokenize(text)
    if not tokens:
        raise LiteralError(text, 0, "empty monomial")
    expo = [0] * dim
    if len(tokens) == 1 and tokens[0][:2] == ("int", 1):
        return tuple(expo)
    k = 0
    while True:
        kind, tok, pos = tokens[k]
        if kind != "name" or not re.fullmatch(r"x\d+", tok):
            raise LiteralError(text, pos, "expected a variable like x0")
        i = int(tok[1:])
        if i >= dim:
            raise LiteralError(text, pos, f"variable {tok} exceeds dimension {dim}")
        k += 1
        power = 1
        if k + 1 < len(tokens) and tokens[k][:2] == ("op", "^"):
            if tokens[k + 1][0] != "int":
                raise LiteralError(text, tokens[k + 1][2], "expected an integer power")
            power = tokens[k + 1][1]
            k += 2
        expo[i] += power
        if k == len(tokens):
            return tuple(expo)
        if tokens[k][:2] != ("op", "*"):
            raise LiteralError(text, tokens[k][2], "expected '*' between variables")
        k += 1
        if k == len(tokens):
            raise LiteralError(text, len(text), "dangling '*'")


def monomial_literal(expo):
    parts = []
    for i, e in enumerate(expo):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# structure files
# ---------------------------------------------------------------------------

def _is_int(value):
    """A JSON integer; true and false are Python ints but are refused."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(doc, key, kind, what):
    if key not in doc:
        raise InputError(f"missing field {key!r}")
    value = doc[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise InputError(f"field {key!r} must be {what}")
    return value


def _check_conductor(conductor):
    cap = conductor_cap()
    if conductor > cap:
        raise InputError(f"conductor {conductor} exceeds the cap {cap} "
                         f"(raise {CONDUCTOR_CAP_VAR} to allow it)")


def parse_structure_file(text, max_group_order=DEFAULT_GROUP_ORDER_CAP):
    """Parse a JSON structure file into a validated StructurePair."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"line {e.lineno} column {e.colno}: {e.msg}")
    except RecursionError:
        raise InputError("structure file nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("a structure file is a JSON object")

    conductor = _require(doc, "conductor", int, "a positive integer")
    if conductor < 1:
        raise InputError("field 'conductor' must be a positive integer")
    _check_conductor(conductor)
    dim = _require(doc, "dimension", int, "a positive integer")
    if dim < 1:
        raise InputError("field 'dimension' must be a positive integer")

    raw_gens = _require(doc, "generators", list, "a list of matrices")
    if not raw_gens:
        raise InputError("field 'generators' must list at least one matrix")
    gens = []
    for gnum, raw in enumerate(raw_gens):
        if not (isinstance(raw, list) and len(raw) == dim
                and all(isinstance(row, list) and len(row) == dim for row in raw)):
            raise InputError(f"generator {gnum} is not a {dim}x{dim} matrix")
        rows = []
        for row in raw:
            out = []
            for entry in row:
                if _is_int(entry):
                    out.append(Cyclotomic.rational(conductor, entry))
                elif isinstance(entry, str):
                    try:
                        out.append(parse_scalar(entry, conductor))
                    except LiteralError as e:
                        raise InputError(f"generator {gnum}: {e}")
                else:
                    raise InputError(f"generator {gnum} entries must be "
                                     "integers or scalar literals")
            rows.append(out)
        gens.append(rows)
    try:
        group = groups.generate(gens, conductor, max_order=max_group_order)
    except groups.GroupOrderError as e:
        raise InputError(str(e))
    except ValueError as e:
        raise InputError(f"generators do not define a matrix group: {e}")

    raw_terms = _require(doc, "structure", list, "a list of term objects")
    pi = PolyVectorField.zero(group)
    b = PolyVectorField.zero(group)
    for tnum, term in enumerate(raw_terms):
        where = f"structure term {tnum}"
        if not isinstance(term, dict):
            raise InputError(f"{where} must be an object")
        for key, kind, what in (("label", str, "a group word"),
                                ("poly", str, "a monomial literal"),
                                ("wedge", list, "a list of indices"),
                                ("coeff", str, "a scalar literal")):
            if key not in term:
                raise InputError(f"{where}: missing field {key!r}")
            if not isinstance(term[key], kind):
                raise InputError(f"{where}: field {key!r} must be {what}")
        try:
            label = group.element_from_word(term["label"])
            expo = parse_monomial(term["poly"], dim)
            coeff = parse_scalar(term["coeff"], conductor)
        except ValueError as e:
            raise InputError(f"{where}: {e}")
        wedge = term["wedge"]
        if not all(_is_int(i) and 0 <= i < dim for i in wedge):
            raise InputError(f"{where}: wedge indices must lie in 0..{dim - 1}")
        if len(set(wedge)) != len(wedge):
            raise InputError(f"{where}: wedge indices must be distinct")
        single = PolyVectorField.single(group, label, expo, tuple(wedge), coeff)
        degree = sum(expo)
        if degree == 0:
            b = b + single
        elif degree == 1:
            pi = pi + single
        else:
            raise InputError(f"{where}: poly must be constant or linear, "
                             f"got degree {degree}")

    weights = doc.get("hbar_weights", [1, 2])
    if not (isinstance(weights, list) and len(weights) == 2
            and all(_is_int(w) and w >= 1 for w in weights)):
        raise InputError("field 'hbar_weights' must be two positive integers")
    swap = doc.get("reality_swap")
    if swap is not None:
        if not (isinstance(swap, list) and all(_is_int(i) for i in swap)
                and sorted(swap) == list(range(dim))):
            raise InputError("field 'reality_swap' must be a permutation "
                             f"of 0..{dim - 1}")
        swap = tuple(swap)
    return StructurePair(group, pi=pi, b=b, w_pi=weights[0], w_b=weights[1],
                         reality_swap=swap)


def term_entries(field):
    """A field's terms as structure-file objects, in canonical order."""
    group = field.group
    out = []
    for (label, expo, wedge) in sorted(field.terms):
        out.append({
            "label": group.word_str(label),
            "poly": monomial_literal(expo),
            "wedge": list(wedge),
            "coeff": field.terms[(label, expo, wedge)].to_literal(),
        })
    return out


def structure_doc(pair):
    """A StructurePair as a structure-file dict, in canonical order."""
    group = pair.group
    return {
        "conductor": group.M,
        "dimension": group.dim,
        "generators": [[[entry.to_literal() for entry in row]
                        for row in group.matrix(gi)]
                       for gi in group.gen_indices],
        "structure": term_entries(pair.pi) + term_entries(pair.b),
        "hbar_weights": [pair.w_pi, pair.w_b],
        "reality_swap": (list(pair.reality_swap)
                         if pair.reality_swap is not None else None),
    }


def emit_structure_file(pair):
    """Render a StructurePair as canonical structure-file JSON."""
    return json.dumps(structure_doc(pair), indent=2) + "\n"


# ---------------------------------------------------------------------------
# reports: each command returns (exit code, data) and `main` renders the data
# as JSON or through the command's text formatter, which reads only the data
# ---------------------------------------------------------------------------

def _status(ok):
    return "pass" if ok else "fail"


def _term_lines(terms, indent="  "):
    return [indent + json.dumps(entry) for entry in terms]


def _bracket_residues(outcome):
    return {"self_bracket_residue": term_entries(outcome.pi_pi_residue),
            "mixed_bracket_residue": term_entries(outcome.b_pi_residue)}


def _residue_payload(residues):
    """Serialize {(label, weight): field} residue maps for the report."""
    return [{"label": field.group.word_str(label), "weight": weight,
             "terms": term_entries(field)}
            for (label, weight), field in sorted(residues.items())]


_BG_LABELS = (
    ("bg1", "twisted cocycle", "bg1_failures"),
    ("bg2", "jacobi coboundary match", "bg2_residues"),
    ("bg3", "mixed bracket", "bg3_residues"),
)


def _bg_data(outcome):
    return {short: {"status": _status(not getattr(outcome, attr)),
                    "residues": _residue_payload(getattr(outcome, attr))}
            for short, _, attr in _BG_LABELS}


def _bg_lines(data):
    lines = []
    for short, description, _ in _BG_LABELS:
        lines.append(f"{short} {description}: {data[short]['status']}")
        for residue in data[short]["residues"]:
            lines.append(f"  at {residue['label']} (weight {residue['weight']}):")
            lines += _term_lines(residue["terms"], indent="    ")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _read_input(args):
    if args.file in (None, "-"):
        return sys.stdin.read()
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {args.file}: {e}")


def _load_pair(args):
    return parse_structure_file(_read_input(args), max_group_order=args.max_group_order)


def cmd_verify_poisson(args):
    outcome = is_poisson(_load_pair(args))
    return (0 if outcome.ok else 1), {"invariant": outcome.invariant,
                                      **_bracket_residues(outcome),
                                      "poisson": outcome.ok}


def _poisson_lines(data):
    lines = [f"invariance: {_status(data['invariant'])}"]
    for name in ("self-bracket", "mixed-bracket"):
        terms = data[name.replace("-", "_") + "_residue"]
        lines.append(f"{name} residue: {'nonzero' if terms else 'zero'}")
        lines += _term_lines(terms)
    return lines


def _text_verify_poisson(data):
    return _poisson_lines(data) + [
        f"verdict: {'poisson' if data['poisson'] else 'not poisson'}"]


def cmd_check_bg(args):
    pair = _load_pair(args)
    outcome = pbw.check_bg(pair.with_b(None) if args.zero_b else pair)
    return (0 if outcome.passed else 1), {**_bg_data(outcome),
                                          "passed": outcome.passed}


def _text_check_bg(data):
    return _bg_lines(data) + [f"verdict: {_status(data['passed'])}"]


def cmd_solve_b(args):
    result = pbw.solve_b(_load_pair(args))
    if not result.feasible:
        return 1, {"solvable": False, "certificates": list(result.certificates)}
    solved = result.pair
    confirmed = pbw.check_bg(solved).passed
    return (0 if confirmed else 1), {
        "solvable": True,
        "free_parameters": result.free_parameters,
        "solved_b": term_entries(solved.b),
        "structure_file": structure_doc(solved),
        "confirmed": confirmed,
    }


def _text_solve_b(data):
    if not data["solvable"]:
        return ["solvable: no"] + [f"  {cert}" for cert in data["certificates"]]
    return (["solvable: yes",
             f"free parameters: {data['free_parameters']}",
             "solved constant correction:"]
            + _term_lines(data["solved_b"])
            + ["flatness conditions on the solved pair: "
               + _status(data["confirmed"])])


def cmd_pbw(args):
    pair = _load_pair(args)
    outcome = pbw.check_bg(pair)
    confluence = pbw.overlap_confluence(pair)
    flat = outcome.passed and confluence.ok
    data = {
        **_bg_data(outcome),
        "confluence": {
            "status": _status(confluence.ok),
            "overlaps_checked": confluence.overlaps_checked,
            "failures": [{"word": desc, "poly": monomial_literal(expo),
                          "label": pair.group.word_str(label),
                          "difference": d.to_literal()}
                         for desc, (expo, label), d in confluence.failures],
        },
        "graded_dimensions": [pbw.graded_dimension(pair.group, d)
                              for d in range(4)],
        "flat": flat,
    }
    if not flat and pair.b.is_zero() and pair.w_b == 2 * pair.w_pi:
        correction = pbw.solve_b(pair)
        if correction.feasible:
            data["suggested_b"] = term_entries(correction.pair.b)
    return (0 if flat else 1), data


def _text_pbw(data):
    confluence = data["confluence"]
    lines = _bg_lines(data)
    lines.append(f"overlap confluence: {confluence['status']} "
                 f"({confluence['overlaps_checked']} overlaps)")
    lines += [f"  {f['word']}: difference {f['difference']} "
              f"at {f['poly']}, label {f['label']}"
              for f in confluence["failures"]]
    lines.append("normal monomial counts through degree 0..3: "
                 + ", ".join(str(d) for d in data["graded_dimensions"]))
    if "suggested_b" in data:
        lines.append("a constant correction restores flatness:")
        lines += _term_lines(data["suggested_b"])
    lines.append(f"verdict: {'flat' if data['flat'] else 'not flat'}")
    return lines


def _check_star_n(n):
    # the star subcommands compute over Q(zeta_lcm(4, n))
    if n < 1:
        raise InputError("--n must be a positive integer")
    _check_conductor(lcm(4, n))


def cmd_star(args):
    _check_star_n(args.n)
    values = [parse_star_expression(text, args.n) for text in args.expr]
    product = values[0]
    for value in values[1:]:
        product = qmoyal.star(product, value)
    return 0, {"n": args.n, "inputs": list(args.expr),
               "result": product.to_literal()}


def _text_star(data):
    return [f"result: {data['result']}"]


def cmd_center(args):
    _check_star_n(args.n)
    seed = parse_star_expression(args.expr, args.n)
    try:
        lifted = qmoyal.center_lift(seed, args.n, route=args.route)
    except (qmoyal.NotInvariantError, qmoyal.StarError) as e:
        return 1, {"error": str(e)}
    central = qmoyal.is_central(lifted, args.n)
    return (0 if central else 1), {"n": args.n, "seed": args.expr,
                                   "lift": lifted.to_literal(),
                                   "central": central}


def _text_center(data):
    if "error" in data:
        return [f"central lift: fail ({data['error']})"]
    return [f"central lift: {data['lift']}",
            f"commutes with the generators: {_status(data['central'])}"]


def cmd_center_relation(args):
    _check_star_n(args.n)
    try:
        constant = qmoyal.center_relation(args.n)
    except qmoyal.StarError as e:
        raise InputError(str(e))
    return 0, {"n": args.n, "constant": constant.to_literal()}


def _text_center_relation(data):
    return [f"relation constant: {data['constant']}"]


def cmd_cohomology(args):
    if args.polydeg < 0:
        raise InputError("--polydeg must be nonnegative")
    if not 0 <= args.degree <= 2:
        raise InputError("--degree must be 0, 1, or 2")
    pair = _load_pair(args)
    try:
        outcome = h_truncated(pair, args.degree, args.polydeg)
    except NotPoissonError as e:
        return 1, {"poisson": False, "invariant": e.report.invariant,
                   **_bracket_residues(e.report)}
    group = pair.group

    def label_dims(dims):
        return [[group.word_str(label), dims[label]] for label in sorted(dims)]

    return 0, {
        "poisson": True,
        "degree": args.degree,
        "polydeg": args.polydeg,
        "dim_kernel": outcome.dim_kernel,
        "dim_image": outcome.dim_image,
        "dimension": outcome.dimension,
        "kernel_label_dims": label_dims(outcome.kernel_label_dims()),
        "image_label_dims": label_dims(outcome.image_label_dims()),
        "representatives": [term_entries(f) for f in outcome.representatives],
        "boundaries": [term_entries(f) for f in outcome.image_basis],
    }


def _text_cohomology(data):
    if not data["poisson"]:
        return ["the structure is not Poisson"] + _poisson_lines(data)

    def label_dims(key):
        return ", ".join(f"{w}: {d}" for w, d in data[key]) or "none"

    lines = [f"cochain degree {data['degree']}, polynomial cap {data['polydeg']}",
             f"cocycle dimension: {data['dim_kernel']}",
             f"boundary dimension: {data['dim_image']}",
             f"cohomology dimension: {data['dimension']}",
             f"cocycle label dimensions: {label_dims('kernel_label_dims')}",
             f"boundary label dimensions: {label_dims('image_label_dims')}",
             "representatives:"]
    for terms in data["representatives"]:
        lines += _term_lines(terms)
    if data["boundaries"]:
        lines.append("boundaries:")
        for terms in data["boundaries"]:
            lines += _term_lines(terms)
    return lines


def _catalog_caps(args, order, conductor):
    # refuse, before building it, an entry the reading subcommands would refuse
    if order > args.max_group_order:
        raise InputError(f"group order exceeds bound {args.max_group_order}")
    _check_conductor(conductor)


def _catalog_entry(args):
    name = args.name
    try:
        if name in ("z2_constant", "z2_r3_linear"):
            _catalog_caps(args, 2, 1)
        if name == "z2_constant":
            return catalog_mod.z2_constant(_scalar_param(args.c, "--c", 1))
        if name == "z2_r3_linear":
            if args.variant is None:
                raise InputError("z2_r3_linear needs --variant 1 or 2")
            return catalog_mod.z2_r3_linear(args.variant)
        if name == "gamma_n":
            if args.n is None or args.c0 is None:
                raise InputError("gamma_n needs --n and --c0")
            _catalog_caps(args, 4 * args.n + 2, lcm(4, 2 * args.n + 1))
            return catalog_mod.gamma_n_family(
                args.n, _scalar_param(args.c0, "--c0", None),
                a=_scalar_param(args.a, "--a", None))
        if name == "cyclic_qmoyal":
            if args.n is None:
                raise InputError("cyclic_qmoyal needs --n")
            _catalog_caps(args, args.n, lcm(4, args.n))
            return catalog_mod.cyclic_qmoyal(args.n)
    except catalog_mod.CatalogError as e:
        raise InputError(f"{name}: {e}")
    raise InputError(f"unknown catalog entry {name!r}; available: "
                     "z2_constant, z2_r3_linear, gamma_n, cyclic_qmoyal")


def _scalar_param(raw, flag, default):
    if raw is None:
        return default
    # parameters are plain rationals; parse them over the trivial field
    # (catalog constructors promote to whatever conductor they need)
    try:
        return _Parser(raw, _RationalDomain()).parse()
    except LiteralError as e:
        raise InputError(f"{flag}: {e}")


def cmd_catalog(args):
    return 0, structure_doc(_catalog_entry(args).structure)


def _text_catalog(doc):
    return [json.dumps(doc, indent=2)]


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    common.add_argument("--max-group-order", type=int,
                        default=DEFAULT_GROUP_ORDER_CAP, metavar="N",
                        help="abort if the generated group exceeds N elements")

    parser = argparse.ArgumentParser(
        prog="crossed-poisson",
        description="Exact verification tools for Poisson structures on "
                    "polynomial crossed products.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, text, help_text, with_file=True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler, text=text)
        if with_file:
            p.add_argument("file", nargs="?", default="-",
                           help="structure file (default: stdin)")
        return p

    add("verify-poisson", cmd_verify_poisson, _text_verify_poisson,
        "invariance and the two projected bracket residues")

    p = add("check-bg", cmd_check_bg, _text_check_bg,
            "the three flatness conditions")
    p.add_argument("--zero-b", action="store_true",
                   help="drop the constant part before checking")

    add("solve-b", cmd_solve_b, _text_solve_b, "solve for a constant correction")

    add("pbw", cmd_pbw, _text_pbw,
        "full flatness certificate: conditions, confluence, dimension counts")

    p = add("star", cmd_star, _text_star,
            "star-multiply expressions in Z, Zb, g", with_file=False)
    p.add_argument("--n", type=int, required=True, help="cyclic group order")
    p.add_argument("expr", nargs="+", help="factors, multiplied left to right")

    p = add("center", cmd_center, _text_center,
            "lift an invariant polynomial to the center", with_file=False)
    p.add_argument("--n", type=int, required=True, help="cyclic group order")
    p.add_argument("--route", choices=("both", "d_z", "d_zbar"), default="both",
                   help="which closed-form component expression to use")
    p.add_argument("expr", help="rotation-invariant polynomial in Z, Zb")

    p = add("center-relation", cmd_center_relation, _text_center_relation,
            "the constant completing the relation between the central "
            "generators", with_file=False)
    p.add_argument("--n", type=int, required=True, help="cyclic group order")

    p = add("cohomology", cmd_cohomology, _text_cohomology,
            "truncated cohomology of the structure differential")
    p.add_argument("--degree", type=int, required=True,
                   help="cochain degree (0, 1, or 2)")
    p.add_argument("--polydeg", type=int, required=True,
                   help="polynomial degree cap")

    p = add("catalog", cmd_catalog, _text_catalog,
            "emit a named entry as a structure file", with_file=False)
    # let negative rational parameters such as --c0 -3/4 through as values
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    p.add_argument("name", help="z2_constant, z2_r3_linear, gamma_n, "
                                "or cyclic_qmoyal")
    p.add_argument("--n", type=int, help="family parameter n")
    p.add_argument("--c0", help="leading class constant (rational literal)")
    p.add_argument("--a", help="linear-part coefficient (rational literal)")
    p.add_argument("--c", help="constant weight (rational literal)")
    p.add_argument("--variant", type=int, help="variant selector")

    return parser


def _text_invariance_failure(data):
    return [f"invariance: fail ({data['error']})"]


def main(argv=None):
    args = build_parser().parse_args(argv)
    text = args.text
    try:
        if args.max_group_order < 1:
            raise InputError("--max-group-order must be a positive integer")
        code, data = args.handler(args)
    except (InputError, UnsupportedStructureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvarianceError as e:
        code, data = 1, {"invariant": False, "error": str(e)}
        text = _text_invariance_failure
    # catalog emits a structure file, which is the same in either format
    if args.format == "json" and args.command != "catalog":
        print(json.dumps({"command": args.command, **data}, indent=2,
                         sort_keys=True))
    else:
        print("\n".join(text(data)))
    return code


if __name__ == "__main__":
    sys.exit(main())

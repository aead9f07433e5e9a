"""Command line front end.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage or input format error, 3 enumeration budget exceeded.
The generator budget can be overridden with the ALTCHAIN_MAX_GENERATORS
environment variable, written in ASCII digits like --max-dim and --cases.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from contextlib import nullcontext
from math import gcd

from . import alt_chains, verify
from . import cochain_algebra as ca
from . import integer_homology as ih
from .complex_model import (DEFAULT_GENERATOR_BUDGET, enumerate_generators,
                            load_complex)
from .corpus import CORPUS_NAMES, load_corpus_complex
from .errors import BudgetExceededError, DegreeCapError, FormatError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_DIGITS = re.compile(r"[0-9]+")


def _budget() -> int:
    raw = os.environ.get("ALTCHAIN_MAX_GENERATORS")
    if raw is None:
        return DEFAULT_GENERATOR_BUDGET
    try:
        return _nonnegative_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise FormatError(f"ALTCHAIN_MAX_GENERATORS: {exc}") from None


def _nonnegative_int(text: str) -> int:
    """Degree caps, case counts and the generator budget: ASCII digits
    only, so a sign, spaces or underscores are a usage error (exit 2)."""
    if _DIGITS.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # past Python's limit on digits read by int()
            pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")


def _read_complex(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}")
    K = load_complex(text)
    if not K.name:
        base = os.path.basename(path)
        K = type(K)(vertex_count=K.vertex_count, facets=K.facets,
                    simplex_set=K.simplex_set,
                    name=base.rsplit(".", 1)[0], vertex_names=K.vertex_names)
    return K


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # also Python's parser limits
        raise FormatError(f"{path}: invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return data


def _degree(cochain_data: dict) -> int:
    degree = cochain_data.get("degree", 0)
    if type(degree) is not int or degree < 0:
        raise FormatError(f"cochain degree {degree!r} is not a nonnegative integer")
    return degree


def _write_output(path: str | None, chunks) -> None:
    """Write the strings ``chunks`` to stdout (path None or '-') or to the
    file at path, joined in batches, since an unbuffered stdout takes one
    write call each.  A path that cannot be written is a usage error."""
    chunks = iter(chunks)
    try:
        with nullcontext(sys.stdout) if path in (None, "-") else open(path, "w") as fh:
            while batch := "".join(itertools.islice(chunks, 8192)):
                fh.write(batch)
    except OSError as exc:
        raise FormatError(f"cannot write {path or '-'}: {exc}") from None


def _json_chunks(payload):
    """Indented JSON plus a newline, streamed token by token."""
    return itertools.chain(json.JSONEncoder(indent=2).iterencode(payload), ["\n"])


def _cochain_chunks(alpha):
    """The cochain as JSON chunks, refused as a whole when a value has
    more digits than Python writes (sys.get_int_max_str_digits())."""
    try:
        data = ca.cochain_to_json(alpha)
    except ValueError:
        raise FormatError("the result has an integer past Python's "
                          f"{sys.get_int_max_str_digits()}-digit limit") from None
    return _json_chunks(data)


def _rational(rank: int) -> str:
    return "0" if rank == 0 else ("Q" if rank == 1 else f"Q^{rank}")


def _cmd_homology(args) -> int:
    K = _read_complex(args.complex)
    if args.variant == "simplicial":
        groups = ih.simplicial_homology(K)
        degrees = range(len(groups))
    elif args.variant == "ordered":
        index = enumerate_generators(K, args.max_dim, budget=_budget())
        groups = ih.ordered_homology(index)
        degrees = range(args.max_dim)
    else:
        pres = alt_chains.alt_chain_complex(K, args.max_dim, budget=_budget())
        groups = ih.homology_presented(pres)
        degrees = range(args.max_dim)
    for n, group in zip(degrees, groups):
        print(f"H_{n} = {group if args.coeff == 'Z' else _rational(group.free_rank)}")
    return EXIT_OK


def _cmd_cohomology(args) -> int:
    K = _read_complex(args.complex)
    if args.variant == "alternative":
        levels = [K.simplices_of_dim(k) for k in range(args.max_dim + 1)]
    else:
        index = enumerate_generators(K, args.max_dim, budget=_budget())
        levels = [index.generators(k) for k in range(args.max_dim)] + [index.stream(args.max_dim)]
    for n, rank in enumerate(ih.cohomology_rational(levels)):
        print(f"H^{n} = {_rational(rank)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    complexes = []
    if args.corpus:
        for name in CORPUS_NAMES:
            complexes.append((name, load_corpus_complex(name)))
    for path in args.complexes:
        K = _read_complex(path)
        complexes.append((K.name, K))
    if not complexes:
        raise FormatError("verify needs at least one complex "
                          "(pass files or --corpus)")
    report = verify.run_all(complexes, seed=args.seed, cases=args.cases,
                            degree_cap=args.max_dim, budget=_budget())
    sys.stdout.write(report.to_text())
    if args.json is not None:
        _write_output(args.json, [report.to_json()])
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _cmd_cup(args) -> int:
    K = _read_complex(args.complex)
    alpha_data = _read_json(args.alpha)
    beta_data = _read_json(args.beta)
    p, q = _degree(alpha_data), _degree(beta_data)
    max_dim = args.max_dim if args.max_dim is not None else p + q
    index = enumerate_generators(K, max_dim, budget=_budget())
    alpha = ca.cochain_from_json(alpha_data, index)
    beta = ca.cochain_from_json(beta_data, index)
    product = (ca.alt_cup if args.alternative else ca.cup)(index, alpha, beta)
    _write_output(args.output, _cochain_chunks(product))
    return EXIT_OK


def _cmd_residual(args) -> int:
    K = _read_complex(args.complex)
    alpha_data = _read_json(args.alpha)
    p = _degree(alpha_data)
    max_dim = args.max_dim if args.max_dim is not None else 2 * p + 1
    index = enumerate_generators(K, max_dim, budget=_budget())
    alpha = ca.cochain_from_json(alpha_data, index)
    if not ca.is_alternative(alpha):
        print("warning: input cochain is not alternating", file=sys.stderr)
    residual = ca.nonlinear_residual(index, alpha)
    chunks = _cochain_chunks(residual)  # before the verdict, which prints values
    if residual.is_zero():
        print("residual: exactly zero")
    else:
        num, den = residual.num, residual.den
        # each value in lowest terms: the witness has the largest |numerator|
        witness = max(num, key=lambda g: (abs(num[g]) // gcd(num[g], den), g))
        top, bottom = num[witness] // (common := gcd(num[witness], den)), den // common
        print(f"residual: nonzero on {len(num)} generators; max |numerator| = {abs(top)}")
        print(f"witness: value {top if bottom == 1 else f'{top}/{bottom}'} "
              f"on generator {list(witness)}")
    _write_output(args.output, chunks)
    return EXIT_OK


def _cmd_export_presentation(args) -> int:
    K = _read_complex(args.complex)
    pres = alt_chains.alt_chain_complex(K, args.max_dim, budget=_budget())
    _write_output(args.output, _json_chunks(alt_chains.presentation_to_json(pres)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altchain",
        description="Exact alternating chain/cochain computations on finite "
                    "simplicial complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="integer or rational homology")
    p.add_argument("complex")
    p.add_argument("--max-dim", type=_nonnegative_int, default=3)
    p.add_argument("--coeff", choices=["Z", "Q"], default="Z")
    p.add_argument("--variant", choices=["alternative", "ordered", "simplicial"],
                   default="alternative")
    p.set_defaults(run=_cmd_homology)

    p = sub.add_parser("cohomology", help="rational cohomology ranks")
    p.add_argument("complex")
    p.add_argument("--max-dim", type=_nonnegative_int, default=3)
    p.add_argument("--variant", choices=["full", "alternative"], default="full")
    p.set_defaults(run=_cmd_cohomology)

    p = sub.add_parser("verify", help="run the full law-verification registry")
    p.add_argument("complexes", nargs="*", metavar="COMPLEX")
    p.add_argument("--corpus", action="store_true",
                   help="include the bundled test complexes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_nonnegative_int, default=200,
                   help="randomized cases per suite and complex")
    p.add_argument("--max-dim", type=_nonnegative_int, default=3)
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the JSON report ('-' for stdout)")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("cup", help="cup product of two cochain files")
    p.add_argument("complex")
    p.add_argument("alpha")
    p.add_argument("beta")
    p.add_argument("--alternative", action="store_true",
                   help="apply the projector to the product")
    p.add_argument("--max-dim", type=_nonnegative_int, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(run=_cmd_cup)

    p = sub.add_parser("residual",
                       help="the nonlinear residual: alpha cup_A coboundary(alpha)")
    p.add_argument("complex")
    p.add_argument("alpha")
    p.add_argument("--max-dim", type=_nonnegative_int, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(run=_cmd_residual)

    p = sub.add_parser("export-presentation",
                       help="generators and boundary matrices of the "
                            "sign-quotient complex (format_version 2; the "
                            "relations 2*e_t follow from the torsion generators)")
    p.add_argument("complex")
    p.add_argument("--max-dim", type=_nonnegative_int, default=3)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(run=_cmd_export_presentation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FormatError, DegreeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

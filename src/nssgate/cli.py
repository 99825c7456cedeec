"""Command-line front end: solve gates, sweep scaling tables, verify, identities.

Single-invocation batch tool.  All artifacts are JSON (or CSV for the solve
and sweep tables), embed schema/version/tolerances and, for the randomized
identities, the seed, and are written atomically when --out is given.  Exit
codes: 0 success, 1 usage/validation error, 2 unused (every node set has a
gate), 3 identity/verification failure.  identities draws each x from
`random.Random(seed)` as an integer pair (a, b), x = a/b, and takes every
residual on integers, the sides scaled to `spoly_scaled`'s b^{2k}; a failing
residual is on that scale, and past the float range it reads inf.  verify
reads the worst signal off lambda, drawing none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import stat
import sys
import tempfile

from . import __version__
from .determinants import (
    NodeSet,
    gapped_vandermonde,
    gapped_vandermonde_S,
    spoly_det,
    vandermonde_power,
)
from .fock_oracle import gate_amplitudes
from .gate_solver import BISECT_TOL
from .optimizer import scan_nodes, sweep
from .polynomials import (
    gapped_binomial_expand,
    oneq_coefficient,
    spoly_scaled,
    symmetric_s,
)

IDENTITY_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe raises here, inside main
        return
    path = os.path.realpath(out_path)  # a symlink's target is replaced, not the link
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:  # a device or fifo is written through, never renamed over
            fh.write(text)
        return
    umask = os.umask(0o022)  # os.umask is the only way to read the umask
    os.umask(umask)
    mode = stat.S_IMODE(os.stat(path).st_mode) if os.path.isfile(path) else 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".nssgate-")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer.  `random.Random` would take a
    negative seed too; the rule is the CLI's own contract (test_negative_seed_is_a_usage_error)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _out(text: str) -> str:
    """argparse type of --out: a non-empty path (os.path.realpath would read "" as the working directory)."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


def _parse_nodes(text: str) -> NodeSet:
    try:
        vals = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"invalid node list {text!r}") from None
    return NodeSet(vals)  # NodeSet rejects duplicates/negatives/disorder


def _write(args, command: str, payload: dict, gates=None) -> None:
    """Write the JSON envelope of one command, or with --format csv the table
    N,T,p with one line per GateSolution of gates (solve and sweep only)."""
    if gates is not None and args.format == "csv":
        text = "N,T,p\n" + "".join(f"{g.N},{_fmt(g.T)},{_fmt(g.p)}\n" for g in gates)
    else:
        art = {
            "schema": 7,
            "version": __version__,
            "command": command,
            "tolerances": {"bisect_tol": BISECT_TOL, "identity_tol": IDENTITY_TOL},
        }
        text = json.dumps({**art, **payload}, indent=2, sort_keys=True)
    _emit(text, args.out)


def _gate(g) -> dict:
    """The JSON record of one gate: its transmission and p."""
    return {"T_re": g.T, "T_im": 0.0, "p": g.p}


def cmd_solve(args) -> int:
    nodes = NodeSet.minimal(args.n) if args.nodes is None else _parse_nodes(args.nodes)
    report = scan_nodes(nodes)
    sol = report.best.solution  # every node set has its gate
    entries = [_gate(e.solution) for e in report.entries]
    scan = {"nodes": list(nodes), "entries": entries, "skipped": [], "best": _gate(sol)}
    alphas = [[float(a), 0.0] for a in sol.alphas]
    solution = {**_gate(sol), "N": sol.N, "nodes": list(nodes), "alphas": alphas, "gammas": list(sol.gammas)}
    _write(args, "solve", {"scan": scan, "solution": solution}, [sol])
    return 0


def cmd_sweep(args) -> int:
    rows = sweep(args.n_min, args.n_max)
    _write(args, "sweep", {"rows": [{"N": r.N, **_gate(r)} for r in rows]}, rows)
    return 0


def _verdict(errors: list, tol: float = IDENTITY_TOL) -> tuple:
    """(worst, pass) of every CLI check: each error must be <= tol, so a NaN (e != e) is the worst and fails.
    An integer worst past the float range reads inf."""
    if any(e != e for e in errors):
        return math.nan, False
    try:
        worst = float(max(errors))
    except OverflowError:
        worst = math.inf
    return worst, all(e <= tol for e in errors)


def _worst_fidelity_error(lam: tuple) -> float:
    """max 1 - F over every signal through amplitudes lam: F = (sum w mu)^2 / sum w mu^2, w_k = |c_k|^2 and
    mu = (lambda_0, ..., lambda_{N-1}, -lambda_N), is at least 4 lo hi / (lo + hi)^2 over the least and greatest
    mu_k (Kantorovich), on the two levels that hold them, if all share one strict sign; else some signal misses
    its target (1.0).  NaN if a lambda_k is NaN, which min and max would drop or keep by where it sits."""
    mu = [*lam[:-1], -lam[-1]]
    if any(math.isnan(x) for x in mu):
        return math.nan
    lo, hi = min(mu), max(mu)
    return ((hi - lo) / (hi + lo)) ** 2 if lo > 0 or hi < 0 else 1.0


def cmd_verify(args) -> int:
    N = args.n
    sol = scan_nodes(NodeSet.minimal(N)).best.solution  # the minimal set always has its gate
    lam = gate_amplitudes(sol)
    # each signal's p is a convex combination of the lambda_k^2, so a basis state is the worst; relative to 1/N^2,
    # so one bound holds at every N
    p_err, p_ok = _verdict([abs(x * x * N**2 - 1.0) for x in lam])
    fid_err, fid_ok = _verdict([_worst_fidelity_error(lam)])
    ok = fid_ok and p_ok
    _write(args, "verify", {"N": N, "T_re": sol.T, "max_fidelity_error": fid_err, "max_prob_error": p_err, "pass": ok})
    return 0 if ok else 3


def _rand_x(rng) -> tuple:
    """Random non-zero rational sample point x = a/b in [-0.95, 0.95], as its lowest-terms pair (a, b), b > 0."""
    while True:
        v = rng.randint(-950, 950)
        if v != 0:
            g = math.gcd(v, 1000)
            return v // g, 1000 // g


def _identity(name: str, residuals: list) -> dict:
    """Report of one identity, passed by the rule of `_verdict` only if every residual is exactly 0."""
    worst, ok = _verdict(residuals, 0)
    return {"identity": name, "instances": len(residuals), "max_residual": worst, "pass": ok}


def _recursion(rng) -> list:
    """k S_k = [(x^2-1)(n+k) + 2k-1] S_{k-1} - (k-1) x^2 S_{k-2} times b^{2k},
    on the integers s_k = b^{2k} S_k (`spoly_scaled`) at x = a/b: exact."""
    xs = [(0, 1), (1, 1), (-1, 1)] + [_rand_x(rng) for _ in range(100)]
    residuals = []
    for a, b in xs:
        n = rng.randrange(0, 31)
        a2, b2 = a * a, b * b
        s = [spoly_scaled(k, a, b, n) for k in range(21)]
        for k in range(2, 21):
            rhs = ((a2 - b2) * (n + k) + (2 * k - 1) * b2) * s[k - 1] - (k - 1) * a2 * b2 * s[k - 2]
            residuals.append(abs(k * s[k] - rhs))
    return residuals


def _binomial(rng) -> int:
    """The expansion times b^{2N} at x = a/b, exact.  Each coefficient is `symmetric_s` times b^{2(N-j)}:
    the one place its formula repeats, on integers, since `symmetric_s` keeps the type of x."""
    N = rng.randrange(1, 9)
    p = rng.randrange(0, N + 1)
    l = rng.randrange(0, 2 * N + 1)
    a, b = _rand_x(rng)
    a2, d = a * a, b * b - a * a
    rhs = sum((-1) ** (N - j) * math.comb(p, j) * a2 ** (p - j) * spoly_scaled(j, a, b, l) for j in range(p + 1))
    return abs((-d) ** N * math.comb(l, p) - d ** (N - p) * rhs)


def _p_equals_N(rng) -> int:
    """The S-basis expansion of C(l, N) times b^{2N} at x = a/b, exact: at p = N the factor (1-x^2)^0 is 1, so
    b^{2(N-j)} s_{N-j}(x; N; N) is `symmetric_s` at the integer a, and (a^2-b^2)^N C(l, N) is the left side."""
    N = rng.randrange(1, 9)
    l = rng.randrange(0, 2 * N + 1)
    a, b = _rand_x(rng)
    rhs = sum((-1) ** (N - j) * symmetric_s(a, N, j, N) * spoly_scaled(j, a, b, l) for j in range(N + 1))
    return abs((a * a - b * b) ** N * math.comb(l, N) - rhs)


def _one_gap_binomial(rng) -> int:
    """The one-gap expansion times (N+1) C(N,q) b^{2N} at x = a/b, exact: `gapped_binomial_expand` carries
    (N+1) C(N,q), so (a^2-b^2)^N times it is the left side."""
    N = rng.randrange(1, 9)
    q = rng.randrange(0, N + 1)
    l = rng.randrange(0, 2 * N + 3)
    a, b = _rand_x(rng)
    rhs = sum((-1) ** (N - j) * oneq_coefficient(a, b, q, j, N) * spoly_scaled(j, a, b, l) for j in range(N + 1))
    return abs((a * a - b * b) ** N * gapped_binomial_expand(N + 1, q, l) - rhs)


def _gap_product(rng) -> int:
    """The gap expansion times p!, against p C(p-1,q) prod_{k != q} (l-k), exact."""
    p = rng.randrange(1, 9)
    q = rng.randrange(0, p)
    l = rng.randrange(-3, 2 * p + 3)
    prod = math.prod(l - k for k in range(p) if k != q)
    return abs(gapped_binomial_expand(p, q, l) * math.factorial(p) - p * math.comb(p - 1, q) * prod)


def _vandermonde_power() -> list:
    """Exact residuals at each set {0..N-1} less one gap, N = 2..10."""
    sets = [(N, gap, NodeSet(tuple(v for v in range(N) if v != gap))) for N in range(2, 11) for gap in range(N)]
    return [abs(vandermonde_power(nodes) - gapped_vandermonde(N, gap)) for N, gap, nodes in sets]


def _gapped_S(rng) -> int:
    """The S-basis determinant of {0..N-1} less one gap against its closed form, both times b^{(N-1)(N-2)}."""
    N = rng.randrange(2, 11)
    gap = rng.randrange(0, N)
    a, b = _rand_x(rng)
    return abs(spoly_det(NodeSet(tuple(v for v in range(N) if v != gap)), a, b) - gapped_vandermonde_S(N, gap, a, b))


def _product_rule(rng) -> int:
    """det[S_k(n_l)] = V(n) prod_k (x^2-1)^k / k! times b^{N(N-1)} prod_k k!, exact."""
    N = rng.randrange(1, 11)
    nodes = NodeSet(tuple(sorted(rng.sample(range(2 * N + 2), N))))
    a, b = _rand_x(rng)
    det = spoly_det(nodes, a, b) * math.prod(map(math.factorial, range(N)))
    return abs(det - (a * a - b * b) ** (N * (N - 1) // 2) * vandermonde_power(nodes))


def _suite_a(rng) -> list:
    """Three-term recursion, including the boundary parameters x = 0, +-1."""
    return [_identity("three_term_recursion", _recursion(rng))]


def _suite_b(rng) -> list:
    """Binomial expansions over the S-basis (gap-free and one-gap forms), 100 random instances each."""
    return [
        _identity("binomial_over_S_basis", [_binomial(rng) for _ in range(100)]),
        _identity("p_equals_N_specialization", [_p_equals_N(rng) for _ in range(100)]),
        _identity("one_gap_binomial_over_S_basis", [_one_gap_binomial(rng) for _ in range(100)]),
        _identity("gap_expansion_product_form", [_gap_product(rng) for _ in range(100)]),
    ]


def _suite_c(rng) -> list:
    """Gapped Vandermondians and the S-basis product rule, 100 random instances each, all exact."""
    return [
        _identity("gapped_vandermonde_power_exact", _vandermonde_power()),
        _identity("gapped_vandermonde_S_basis", [_gapped_S(rng) for _ in range(100)]),
        _identity("S_basis_product_rule", [_product_rule(rng) for _ in range(100)]),
    ]


def cmd_identities(args) -> int:
    suites = {"a": _suite_a, "b": _suite_b, "c": _suite_c}
    selected = list(suites) if args.suite == "all" else [args.suite]
    report = {name: suites[name](random.Random(args.seed)) for name in selected}
    ok = all(r["pass"] for res in report.values() for r in res)
    _write(args, "identities", {"suites": report, "pass": ok, "seed": args.seed})
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nssgate", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", type=_out, default=None, help="output path (atomic write); default stdout")

    p = sub.add_parser("solve", help="solve the gate for one node set")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=int, help="the minimal node set 0..N-1")
    which.add_argument("--nodes", help="comma-separated photon numbers; N is their count")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="scaling table over a range of N")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    common(p)
    p.set_defaults(func=cmd_sweep)

    about = "worst p and fidelity of the minimal gate over every signal, from lambda: exact elements times the weights"
    p = sub.add_parser("verify", help=about, description=about)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identities", help="run the polynomial/determinant identity suites")
    p.add_argument("--suite", choices=["a", "b", "c", "all"], default="all")
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=cmd_identities)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early: send the interpreter's final flush to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output pipe closed before the result was written", file=sys.stderr)
        return 1
    except OSError as exc:
        # --out names a directory, or a path in a missing or read-only one
        print(f"error: cannot write {args.out or 'to stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

import errno
import hashlib
import json
import math
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import nssgate
from nssgate.cli import main
from nssgate.determinants import NodeSet, gapped_vandermonde_S, vandermonde_power
from nssgate.fock_oracle import SignalState, _post_select, apply_gate, gate_amplitudes
from nssgate.gate_solver import GateSolution
from nssgate.optimizer import scan_nodes
from nssgate.polynomials import spoly_column, spoly_scaled, symmetric_s
from reference import overlap_squared, random_signal, sign_flipped
from test_gate_solver import WIDE_40

SEARCH_SETTINGS = ("bisect_tol", "identity_tol")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _meets_closed_forms(N, T, p):
    """T = 1 - 2^{1/N} and p = 1/N^2 to 1e-14 (T absolute, p relative)."""
    return abs(T + math.expm1(math.log(2) / N)) <= 1e-14 and abs(p * N**2 - 1) <= 1e-14


class TestSolve:
    def test_n2_landmark(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 7
        assert "version" in doc and "tolerances" in doc
        assert "seed" not in doc  # solve draws no random numbers
        sol = doc["solution"]
        assert sol["T_re"] == pytest.approx(1 - math.sqrt(2), abs=1e-10)
        assert sol["p"] == pytest.approx(0.25, abs=1e-8)
        assert len(sol["alphas"]) == 2 and len(sol["gammas"]) == 2

    def test_n2_lists_only_the_gate(self, capsys):
        # T = +-1 are roots of det(a) for N >= 2 only through det(a2); they are not gates
        code, out, _ = run(capsys, "solve", "--n", "2")
        assert code == 0
        scan = json.loads(out)["scan"]
        (entry,) = scan["entries"]
        assert entry["T_re"] == pytest.approx(1 - math.sqrt(2), abs=1e-12)
        assert entry["p"] == pytest.approx(0.25, abs=1e-12)
        assert scan["skipped"] == []

    def test_gapped_nodes_gate_passes_fock_oracle(self, capsys):
        code, out, _ = run(capsys, "solve", "--nodes", "0,4,6,7,8,9,12,14,16")
        assert code == 0
        s = json.loads(out)["solution"]
        assert 0.69 <= s["T_re"] <= 0.695
        sol = GateSolution(
            N=s["N"],
            T=s["T_re"],
            nodes=NodeSet(tuple(s["nodes"])),
            alphas=tuple(re for re, _ in s["alphas"]),
            gammas=tuple(s["gammas"]),
            p=s["p"],
        )
        rng = random.Random(9)
        for _ in range(3):
            signal = SignalState(random_signal(rng, 10))
            out_state, prob, _ = apply_gate(signal, sol, full=True)
            assert 1.0 - overlap_squared(out_state.coefficients, sign_flipped(signal.coefficients)) <= 1e-8
            assert prob == pytest.approx(s["p"], rel=1e-8)

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "1")
        assert code == 0
        sol = json.loads(out)["solution"]
        assert sol["T_re"] == pytest.approx(-1.0)
        assert sol["p"] == pytest.approx(1.0, abs=1e-10)

    def test_custom_nodes(self, capsys):
        code, out, _ = run(capsys, "solve", "--nodes", "0,1,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["solution"]["nodes"] == [0, 1, 3]
        assert 0.0 < doc["solution"]["p"] <= 1.0

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "solve", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,T,p"
        fields = lines[1].split(",")
        assert float(fields[1]) == pytest.approx(1 - math.sqrt(2), abs=1e-10)

    def test_invalid_nodes_exit_1(self, capsys):
        code, _, err = run(capsys, "solve", "--nodes", "1,1")
        assert code == 1
        assert "error" in err
        code, _, _ = run(capsys, "solve", "--nodes", "0,-2")
        assert code == 1
        code, _, _ = run(capsys, "solve", "--nodes", "0,x")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--n", "2", "--nodes", "0,1"), "argument --nodes: not allowed with argument --n"),
            ((), "one of the arguments --n --nodes is required"),
        ],
        ids=["both", "neither"],
    )
    def test_node_set_named_once(self, capsys, argv, message):
        # --n names the minimal set and --nodes any set, whose length is N
        with pytest.raises(SystemExit) as exc:
            main(["solve", *argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: nssgate solve ")
        assert captured.err.endswith(f"\nnssgate solve: error: {message}\n")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sol.json"
        code, out, _ = run(capsys, "solve", "--n", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["solution"]["p"] == pytest.approx(0.25, abs=1e-8)

    def test_failed_rename_removes_the_temporary_file(self, capsys, tmp_path, monkeypatch):
        # the write goes to a temporary file that replaces the target; when the
        # replace fails, the temporary file goes and the target is untouched
        target = tmp_path / "sol.json"
        target.write_text("old\n")

        def fail(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", fail)
        code, out, err = run(capsys, "solve", "--n", "2", "--out", str(target))
        assert code == 1 and out == ""
        assert err == f"error: cannot write {target}: Invalid cross-device link\n"
        assert list(tmp_path.glob(".nssgate-*")) == [] and list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old\n"

    def test_huge_photon_number(self, capsys):
        # T^-999999 leaves the float range; the weights are evaluated in decimal
        code, out, err = run(capsys, "solve", "--nodes", "0,1,999999")
        assert code == 0
        assert err == ""
        sol = json.loads(out)["solution"]
        assert sol["p"] == pytest.approx(1.0250946808188e-10, rel=1e-14, abs=0)
        assert sum(g * g for g in sol["gammas"]) == pytest.approx(1.0, abs=1e-12)

    def test_best_gate_ranked_past_the_float_range(self, capsys):
        # both roots' p underflow to 0.0 as floats; the best gate, in scan.best and in
        # solution, is the root of larger 34-digit p, at T > 0 (test_optimizer ranks the same)
        nodes = sorted(random.Random(2).sample(range(495), 450))
        code, out, _ = run(capsys, "solve", "--nodes", ",".join(map(str, nodes)))
        assert code == 0
        doc = json.loads(out)
        entries = doc["scan"]["entries"]
        assert [e["p"] for e in entries] == [0.0, 0.0]
        assert entries[0]["T_re"] < 0 < entries[1]["T_re"]
        assert doc["scan"]["best"] == entries[1]
        assert doc["solution"]["T_re"] == entries[1]["T_re"] and doc["solution"]["p"] == 0.0

    @pytest.mark.parametrize("nodes", [f"0,{10**320}", f"0,1,{10**200}"], ids=["n2", "n3"])
    def test_photon_numbers_beyond_float_range_exit_1(self, capsys, nodes):
        # T^n of these photon numbers leaves even the decimal exponent range
        code, out, err = run(capsys, "solve", "--nodes", nodes)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_out_symlink_replaces_its_target(self, capsys, tmp_path):
        target = tmp_path / "real.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target.name)
        code, out, _ = run(capsys, "solve", "--n", "2", "--out", str(link))
        assert code == 0 and out == ""
        assert link.is_symlink() and os.readlink(link) == target.name
        assert json.loads(target.read_text())["solution"]["N"] == 2

    def test_out_new_file_mode_follows_umask(self, capsys, tmp_path):
        target = tmp_path / "sol.json"
        old = os.umask(0o022)
        try:
            code, _, _ = run(capsys, "solve", "--n", "2", "--out", str(target))
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_out_existing_file_keeps_its_mode(self, capsys, tmp_path):
        target = tmp_path / "sol.json"
        target.write_text("old\n")
        target.chmod(0o640)
        code, _, _ = run(capsys, "solve", "--n", "2", "--out", str(target))
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert json.loads(target.read_text())["solution"]["N"] == 2

    def test_out_fifo_is_written_in_place(self, capsys, tmp_path):
        # a non-regular file is written through, not renamed over; the read
        # end is opened first, non-blocking, so the CLI's open never waits
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = run(capsys, "sweep", "--n-min", "1", "--n-max", "2", "--out", str(fifo))
            data = os.read(fd, 1 << 16)
        finally:
            os.close(fd)
        assert code == 0
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert [r["N"] for r in json.loads(data)["rows"]] == [1, 2]

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exit_1(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "sol.json" if where == "missing_dir" else tmp_path
        code, out, err = run(capsys, "sweep", "--n-min", "2", "--n-max", "3", "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []  # no temporary file left behind

    @pytest.mark.parametrize(
        "argv",
        [("solve", "--n", "3"), ("sweep", "--n-min", "1", "--n-max", "2"), ("verify", "--n", "2"), ("identities",)],
        ids=["solve", "sweep", "verify", "identities"],
    )
    def test_empty_out_is_a_usage_error(self, capsys, argv):
        # os.path.realpath("") is the working directory, so an empty path would fail
        # as "cannot write to stdout: Is a directory", after the whole computation
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", ""])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: nssgate {argv[0]} ")
        assert captured.err.endswith(f"\nnssgate {argv[0]}: error: argument --out: expected a path, got ''\n")

    def test_n15_meets_the_closed_forms(self, capsys):
        code, out, err = run(capsys, "solve", "--n", "15")
        assert code == 0 and err == ""
        sol = json.loads(out)["solution"]
        assert _meets_closed_forms(15, sol["T_re"], sol["p"])

    def test_closed_stdout_exit_1(self):
        # the read end is closed before the child starts, so its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        # the child imports the nssgate under test: the source tree or the installed package
        home = str(Path(nssgate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")])))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nssgate.cli", "solve", "--n", "2"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 1
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.startswith("error:") and err.count("\n") == 1


def _key_counts(obj, counts):
    if isinstance(obj, dict):
        for k, v in obj.items():
            counts[k] = counts.get(k, 0) + 1
            _key_counts(v, counts)
    elif isinstance(obj, list):
        for v in obj:
            _key_counts(v, counts)
    return counts


@pytest.mark.parametrize("argv", [("solve", "--n", "3"), ("sweep", "--n-min", "1", "--n-max", "3"), ("verify", "--n", "3")])
def test_envelope_holds_each_setting_once(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 7
    assert "seed" not in doc
    counts = _key_counts(doc, {})
    assert {k: counts.get(k, 0) for k in SEARCH_SETTINGS} == {k: 1 for k in SEARCH_SETTINGS}
    assert "config" not in doc and "search" not in doc
    if "scan" in doc:
        assert "search" not in doc["scan"]


class TestSweep:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n-min", "1", "--n-max", "10", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,T,p"
        assert len(lines) == 11
        for row in lines[1:]:
            n, t, p = row.split(",")
            assert float(p) * int(n) ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n-min", "2", "--n-max", "2")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 1 and rows[0]["N"] == 2

    def test_zero_min_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--n-min", "0", "--n-max", "3")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("n_min, n_max", [(1, 15), (99, 100)])
    def test_rows_meet_the_closed_forms(self, capsys, n_min, n_max):
        code, out, err = run(capsys, "sweep", "--n-min", str(n_min), "--n-max", str(n_max))
        assert code == 0 and err == ""
        rows = json.loads(out)["rows"]
        assert [r["N"] for r in rows] == list(range(n_min, n_max + 1))
        assert all(_meets_closed_forms(r["N"], r["T_re"], r["p"]) for r in rows)


def _verify_on(capsys, monkeypatch, N, change) -> tuple:
    """(exit code, report) of verify --n N with the gate's lambda passed through change."""
    monkeypatch.setattr(nssgate.cli, "gate_amplitudes", lambda sol: change(gate_amplitudes(sol)))
    code, out, _ = run(capsys, "verify", "--n", str(N))
    return code, json.loads(out)


class TestVerify:
    @pytest.mark.parametrize("N", [1, 2, 6, 14, 40, 100, 136])
    def test_reports_the_worst_case_of_lambda(self, capsys, monkeypatch, N):
        # the worst basis state's relative p error, and Kantorovich's bound on the
        # fidelity over the least and greatest of the signed amplitudes mu
        seen = []
        code, doc = _verify_on(capsys, monkeypatch, N, lambda lam: seen.append(lam) or lam)
        (lam,) = seen
        mu = [*lam[:-1], -lam[-1]]
        assert all(x > 0 for x in mu) or all(x < 0 for x in mu)
        m, M = min(map(abs, mu)), max(map(abs, mu))
        assert doc["max_prob_error"] == max(abs(x * x * N**2 - 1) for x in lam)
        assert doc["max_fidelity_error"] == ((M - m) / (M + m)) ** 2
        assert code == 0 and doc["pass"] is True and doc["N"] == N
        assert doc["max_prob_error"] <= 1e-13 and doc["max_fidelity_error"] <= 1e-27
        assert _meets_closed_forms(N, doc["T_re"], 1 / N**2)

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_n_below_1_exit_1(self, capsys, command, n):
        # NodeSet.minimal owns the rule, so every command that takes --n says the same
        assert run(capsys, command, "--n", n) == (1, "", "error: need N >= 1\n")

    @pytest.mark.parametrize(
        "change, failed",
        [
            (lambda lam: (lam[0] * (1 + 1e-6), *lam[1:]), ["max_prob_error"]),
            (lambda lam: (*lam[:-1], -lam[-1]), ["max_fidelity_error"]),
            (lambda lam: (math.nan, *lam[1:]), ["max_fidelity_error", "max_prob_error"]),
            (lambda lam: (*lam[:-1], math.nan), ["max_fidelity_error", "max_prob_error"]),
        ],
        ids=["p_relative", "sign_flip", "nan_first", "nan_last"],
    )
    def test_planted_error_fails(self, capsys, monkeypatch, change, failed):
        # both errors are bounded by identity_tol = 1e-9; p's relative to 1/N^2, so at
        # N = 14 one level 1e-6 off fails though its p is only 1.0e-8 off absolute; a
        # flipped lambda_N leaves every p as it was, and some signal is then orthogonal
        # to its target; a NaN fails wherever it sits
        code, doc = _verify_on(capsys, monkeypatch, 14, change)
        assert code == 3
        assert doc["pass"] is False and doc["tolerances"]["identity_tol"] == 1e-9
        errors = ("max_fidelity_error", "max_prob_error")
        assert [e for e in errors if not doc[e] <= 1e-9] == failed
        if len(failed) == 2:
            assert all(math.isnan(doc[e]) for e in errors)
        elif failed == ["max_fidelity_error"]:
            assert doc["max_fidelity_error"] == 1.0


class TestWorstCaseRule:
    """verify's two numbers from lambda alone are attained by signals sent through
    `_post_select`, and no other signal exceeds them; on a gate 1e-3 off, so both
    sit far above the roundoff of the fidelity."""

    N = 6

    @pytest.fixture
    def gate(self, capsys, monkeypatch):
        """(lambda of the minimal N = 6 gate with each level off by up to 1e-3, verify's report on it)."""
        rng = random.Random(3)
        lam = tuple(x * (1 + 1e-3 * rng.uniform(-1, 1)) for x in gate_amplitudes(scan_nodes(NodeSet.minimal(self.N)).best.solution))
        code, doc = _verify_on(capsys, monkeypatch, self.N, lambda _: lam)
        assert code == 3
        return lam, doc

    def test_two_levels_attain_the_fidelity_error(self, gate):
        # weights M/(m+M) and m/(m+M) on the levels of the least and greatest |mu|
        lam, doc = gate
        mu = [abs(x) for x in lam]
        i, j = mu.index(min(mu)), mu.index(max(mu))
        m, M = mu[i], mu[j]
        c = [0.0] * (self.N + 1)
        c[i], c[j] = math.sqrt(M / (m + M)), math.sqrt(m / (m + M))
        signal = SignalState(tuple(c))
        out, _ = _post_select(signal, lam)
        error = 1.0 - overlap_squared(out.coefficients, sign_flipped(signal.coefficients))
        assert error == pytest.approx(doc["max_fidelity_error"], rel=1e-8, abs=0)

    def test_a_basis_state_attains_the_prob_error(self, gate):
        lam, doc = gate
        basis = [SignalState(tuple(float(k == l) for l in range(self.N + 1))) for k in range(self.N + 1)]
        assert max(abs(_post_select(e, lam)[1] * self.N**2 - 1) for e in basis) == doc["max_prob_error"]

    def test_no_signal_exceeds_either_number(self, gate):
        lam, doc = gate
        rng = random.Random(5)
        for _ in range(2000):
            signal = SignalState(random_signal(rng, self.N + 1))
            out, prob = _post_select(signal, lam)
            assert abs(prob * self.N**2 - 1) <= doc["max_prob_error"]
            assert 1.0 - overlap_squared(out.coefficients, sign_flipped(signal.coefficients)) <= doc["max_fidelity_error"]


class TestIdentities:
    def test_suite_a(self, capsys):
        code, out, _ = run(capsys, "identities", "--suite", "a")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        (rec,) = doc["suites"]["a"]
        assert rec["instances"] == 1957 and rec["max_residual"] == 0.0

    def test_planted_recursion_error_fails(self, capsys, monkeypatch):
        # the recursion is checked on the integers b^{2k} S_k, so one unit in
        # b^{40} S_20 fails even at x = a/1000, where a relative float
        # residual could not see an error of 1e-120
        monkeypatch.setattr(nssgate.cli, "spoly_scaled", lambda k, a, b, n: spoly_scaled(k, a, b, n) + (k == 20 and b > 1))
        code, out, _ = run(capsys, "identities", "--suite", "a")
        assert code == 3
        (rec,) = json.loads(out)["suites"]["a"]
        assert rec["identity"] == "three_term_recursion" and rec["pass"] is False and rec["max_residual"] > 0

    def test_suite_b(self, capsys):
        # the two S-basis expansions compare integers at x = a/b, so all four identities read exactly 0
        code, out, _ = run(capsys, "identities", "--suite", "b")
        assert code == 0
        reports = json.loads(out)["suites"]["b"]
        assert [(r["instances"], r["max_residual"], r["pass"]) for r in reports] == [(100, 0.0, True)] * 4

    def test_planted_suite_b_error_fails(self, capsys, monkeypatch):
        # one unit in b^{2j} S_j, j >= 1, is below any relative float bound at x = a/1000
        monkeypatch.setattr(nssgate.cli, "spoly_column", lambda K, a, b, n: [s + (j >= 1) for j, s in enumerate(spoly_column(K, a, b, n))])
        code, out, _ = run(capsys, "identities", "--suite", "b")
        assert code == 3
        reports = json.loads(out)["suites"]["b"]
        failed = {r["identity"] for r in reports if r["pass"] is False and r["max_residual"] > 0}
        assert failed == {"binomial_over_S_basis", "p_equals_N_specialization", "one_gap_binomial_over_S_basis"}

    def test_planted_p_equals_N_error_fails(self, capsys, monkeypatch):
        # p_equals_N expands C(l, N) over S on integers at x = a/b, so one unit in
        # s_{N-j}, j < N, fails it; no other identity of suite b calls symmetric_s.
        # The residual is then the sum of +-b^{2j} S_j over j < N, whose size depends
        # on the draws; as a nonzero integer it is at least 1
        monkeypatch.setattr(nssgate.cli, "symmetric_s", lambda x, p, j, N: symmetric_s(x, p, j, N) + (j < N))
        code, out, _ = run(capsys, "identities", "--suite", "b")
        assert code == 3
        (rec,) = [r for r in json.loads(out)["suites"]["b"] if r["pass"] is False]
        assert (rec["identity"], rec["instances"]) == ("p_equals_N_specialization", 100)
        assert rec["max_residual"] >= 1

    def test_suite_c_integer_path_exact(self, capsys):
        code, out, _ = run(capsys, "identities", "--suite", "c")
        assert code == 0
        doc = json.loads(out)
        assert [r["max_residual"] for r in doc["suites"]["c"]] == [0.0, 0.0, 0.0]

    def test_planted_S_column_error_fails(self, capsys, monkeypatch):
        # n units in b^{2k} S_k, k >= 1, of spoly_det's column at node n fail both S-basis
        # determinants; the power-basis one reads no S value.  The same units at every
        # node would add row 0, all ones, to each row k >= 1 and leave the determinant
        monkeypatch.setattr(
            nssgate.determinants, "spoly_column", lambda K, a, b, n: [s + (k >= 1) * n for k, s in enumerate(spoly_column(K, a, b, n))]
        )
        code, out, _ = run(capsys, "identities", "--suite", "c")
        assert code == 3
        failed = {r["identity"] for r in json.loads(out)["suites"]["c"] if r["pass"] is False and r["max_residual"] > 0}
        assert failed == {"gapped_vandermonde_S_basis", "S_basis_product_rule"}

    @staticmethod
    def _plant_in_product_rule(monkeypatch, change):
        """Apply change to V(n) where `_product_rule` reads it for its closed form, and nowhere else."""

        def planted(nodes):
            v = vandermonde_power(nodes)
            return change(v) if sys._getframe(1).f_code.co_name == "_product_rule" else v

        monkeypatch.setattr(nssgate.cli, "vandermonde_power", planted)

    @pytest.mark.parametrize("name", ["gapped_vandermonde_S", "vandermonde_S"])
    def test_planted_error_fails(self, capsys, monkeypatch, name):
        # suite c compares integers on spoly_det's scale, so a closed form off by
        # one fails though that is far below 1e-12 relative; a relative bound of
        # identity_tol would let it pass.  The product rule's closed form is
        # (a^2-b^2)^{N(N-1)/2} V(n), so its off-by-one is planted in V(n)
        if name == "vandermonde_S":
            self._plant_in_product_rule(monkeypatch, lambda v: v + 1)
        else:
            monkeypatch.setattr(nssgate.cli, name, lambda *args: gapped_vandermonde_S(*args) + 1)
        code, out, _ = run(capsys, "identities", "--suite", "c")
        assert code == 3
        doc = json.loads(out)
        assert doc["pass"] is False
        assert sum(r["pass"] is False and r["max_residual"] > 0 for r in doc["suites"]["c"]) == 1

    @pytest.mark.parametrize("suite", ["a", "c"])
    def test_residual_past_the_float_range_reads_infinity(self, capsys, monkeypatch, suite):
        # an integer residual past the float range fails as inf (JSON Infinity), with exit 3
        # and no OverflowError: suite a's b^{2k} S_k and suite c's product rule off by 10^400
        if suite == "a":
            monkeypatch.setattr(nssgate.cli, "spoly_scaled", lambda k, a, b, n: spoly_scaled(k, a, b, n) + (k >= 1) * 10**400)
            failing = "three_term_recursion"
        else:
            self._plant_in_product_rule(monkeypatch, lambda v: v * 10**400)
            failing = "S_basis_product_rule"
        code, out, err = run(capsys, "identities", "--suite", suite)
        assert code == 3 and err == ""
        assert '"max_residual": Infinity' in out
        doc = json.loads(out)
        assert doc["pass"] is False
        assert [r["identity"] for r in doc["suites"][suite] if r["pass"] is False] == [failing]
        assert [r["max_residual"] for r in doc["suites"][suite] if r["identity"] == failing] == [math.inf]

    @pytest.mark.parametrize(
        "suite, name",
        [("a", "spoly_scaled"), ("b", "oneq_coefficient"), ("c", "gapped_vandermonde_S")],
        ids=["a", "b", "c"],
    )
    def test_nan_residual_fails(self, capsys, monkeypatch, suite, name):
        # a NaN compares false with every bound, so a running max() would drop it
        monkeypatch.setattr(f"nssgate.cli.{name}", lambda *args: float("nan"))
        code, out, _ = run(capsys, "identities", "--suite", suite)
        assert code == 3
        doc = json.loads(out)
        assert doc["pass"] is False
        assert any(math.isnan(r["max_residual"]) and r["pass"] is False for r in doc["suites"][suite])

    def test_reports_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "identities", "--suite", "all", "--seed", "1", "--out", str(a))[0] == 0
        assert run(capsys, "identities", "--suite", "all", "--seed", "1", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def _suite_c_draws(capsys, monkeypatch, seed) -> dict:
        """The arguments, node sets as their values, of every spoly_det and vandermonde_power call of suite c at seed."""
        calls = {"spoly_det": [], "vandermonde_power": []}
        for name, record in calls.items():
            closed = getattr(nssgate.determinants, name)
            monkeypatch.setattr(
                nssgate.cli, name, lambda nodes, *ab, f=closed, r=record: r.append((nodes.values, *ab)) or f(nodes, *ab)
            )
        assert run(capsys, "identities", "--suite", "c", "--seed", str(seed))[0] == 0
        return calls

    def test_seed_drives_the_draws_in_range(self, capsys, monkeypatch):
        # every residual is 0 at any draw, so only the recorded instances show what the seed picks
        draws = self._suite_c_draws(capsys, monkeypatch, 0)
        assert draws == self._suite_c_draws(capsys, monkeypatch, 0)
        assert draws != self._suite_c_draws(capsys, monkeypatch, 1)
        # the 54 gapped power sets, then 100 gapped-S instances, then 100 product-rule ones, each
        # of which calls both on the same nodes
        assert (len(draws["spoly_det"]), len(draws["vandermonde_power"])) == (200, 154)
        assert [(nodes,) for nodes, _, _ in draws["spoly_det"][100:]] == draws["vandermonde_power"][54:]
        for _, a, b in draws["spoly_det"]:
            # x = a/b in lowest terms, a multiple of 1/1000 with 0 < |x| <= 0.95
            assert type(a) is int and type(b) is int and b > 0 and math.gcd(a, b) == 1
            assert 1000 % b == 0 and 0 < 100 * abs(a) <= 95 * b
        for nodes, _, _ in draws["spoly_det"][100:]:
            N = len(nodes)
            assert 1 <= N <= 10 and all(type(v) is int for v in nodes)
            assert list(nodes) == sorted(set(nodes)) and 0 <= nodes[0] and nodes[-1] <= 2 * N + 1


# SHA-256 of the stdout of nine reports: the roots, the weights and p, as
# printed, must not change by a bit when the solver's arithmetic does, nor
# the identity residuals when the closed forms' arithmetic does (a version or
# schema change alters the JSON ones too)
PINNED_OUTPUTS = {
    "sweep_1_100": (("sweep", "--n-min", "1", "--n-max", "100"), "09272c513f10862a0f05cb87fa4bb111b22c7dc257961884f6f3dac5a99e264d"),
    "solve_300": (("solve", "--n", "300"), "fa03930918df273c83e6323e5e6c92b5690ae56a7cc66bd96dba8716b1f63898"),
    "solve_2..61": (("solve", "--nodes", ",".join(map(str, range(2, 62)))), "84d8e643fd19b675f1d2ce9033d3307bbb24109767542a2b6a825a2e35c43d32"),
    "solve_wide_40": (("solve", "--nodes", ",".join(map(str, WIDE_40))), "b5554879a9a0d9fc3a934981c3c76fda6527e5b92622574f7d482f621e210f77"),
    # three roots, on both sides of T = 0 and two of them 0.002 apart
    "solve_2_5,6": (("solve", "--nodes", "5,6"), "b37a99be5123ac8c68db7e0fb5b9c44f0fdc8e34e2d42a9d77fb25f796182378"),
    "solve_14_csv": (("solve", "--n", "14", "--format", "csv"), "c1069dbd4c574802e0f248905cbcc3cd4fb5631972e0b9250772e39ea625c7d3"),
    "sweep_1_30_csv": (("sweep", "--n-min", "1", "--n-max", "30", "--format", "csv"), "27979d5f4ab51778c14763788b93e2ab68e693339b8bd431cdd11170903534ea"),
    "identities_all_0": (("identities", "--suite", "all", "--seed", "0"), "5ddb9e9de49f162a49ec9b1d4e9daa42756b0b50007796d87cbf55b8d08b4d5b"),
    # the worst case of every signal, read from lambda: no draw, so no seed
    "verify_14": (("verify", "--n", "14"), "3ffd4787ca406d4cfec4b50b2d502ea7cc1bfa8cfa5d6f964641f534b4ead6a0"),
    # a coefficient matrix of 100 spoly_column columns, each k = 0..100
    "verify_100": (("verify", "--n", "100"), "8ec0f5de1b2b1c42560bdf38b7780c0cd33d60a0cd70b5120bfd11dac63dcc2b"),
}


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS.values(), ids=PINNED_OUTPUTS)
def test_output_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [("identities", "--suite", "a")], ids=["identities"])
def test_negative_seed_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith(f"usage: nssgate {argv[0]} ")
    assert error.startswith(f"nssgate {argv[0]}: error: argument --seed: ")


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus"])
    assert exc.value.code == 1


HUGE_N = str(10**21)


@pytest.mark.parametrize(
    "argv",
    [("solve", "--n", HUGE_N), ("verify", "--n", HUGE_N), ("sweep", "--n-min", HUGE_N, "--n-max", HUGE_N)],
    ids=["solve", "verify", "sweep"],
)
def test_n_past_any_tuple_length_exits_1(capsys, argv):
    # no tuple is longer than sys.maxsize, so the minimal node set {0..N-1} cannot be built
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: N is too large for a node set\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--n", "2"), ("--format", "csv")),
        (("identities",), ("--format", "csv")),
        (("solve", "--n", "2"), ("--seed", "1")),
        (("sweep", "--n-min", "1", "--n-max", "2"), ("--seed", "1")),
        (("verify", "--n", "2"), ("--seed", "1")),
        (("verify", "--n", "2"), ("--trials", "5")),
    ],
    ids=["verify", "identities", "solve-seed", "sweep-seed", "verify-seed", "verify-trials"],
)
def test_format_only_on_tables(capsys, argv, flag):
    # only solve and sweep have a CSV form, and only identities draws random
    # numbers, so only it takes --seed; verify checks every signal at once
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: nssgate ") and err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")

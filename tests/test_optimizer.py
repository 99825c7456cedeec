import math
import random

import pytest

from nssgate.determinants import NodeSet
from nssgate.gate_solver import optimal_transmission
from nssgate.optimizer import scan_nodes, sweep


def test_scan_minimal_two():
    report = scan_nodes(NodeSet.minimal(2))
    assert report.best is not None
    assert complex(report.best.T).real == pytest.approx(1 - math.sqrt(2), abs=1e-10)
    assert report.best.p == pytest.approx(0.25, abs=1e-8)
    # external upper-bound sanity check only (not re-derived here)
    assert report.best.p <= 0.25 + 1e-9


def test_scan_single_node():
    report = scan_nodes(NodeSet((0,)))
    assert report.best is not None
    assert complex(report.best.T).real == pytest.approx(-1.0)
    assert report.best.p == pytest.approx(1.0, abs=1e-10)


def test_scan_nonminimal_below_baseline():
    # higher ancilla photon numbers cannot beat the minimal choice
    baseline = scan_nodes(NodeSet.minimal(2)).best.p
    report = scan_nodes(NodeSet((0, 2)))
    assert report.best is not None
    assert report.best.p <= baseline + 1e-9


def test_scan_entries_validated_and_ordered():
    report = scan_nodes(NodeSet.minimal(4))
    ts = [complex(e.T).real for e in report.entries]
    assert ts == sorted(ts)
    assert report.best.p == max(e.p for e in report.entries)


@pytest.mark.parametrize("nodes", [tuple(range(N)) for N in range(2, 15)] + [(0, 2), (1, 2, 4)], ids=str)
def test_scan_lists_no_unit_transmission(nodes):
    # det(a2), and with it det(a), vanishes at T = +-1 for N >= 2; no gate exists there
    report = scan_nodes(NodeSet(nodes))
    assert report.entries
    assert all(abs(e.T) < 1.0 for e in report.entries)
    assert all(abs(t) < 1.0 for t, _ in report.skipped)


def test_scan_determinism():
    a = scan_nodes(NodeSet((0, 1, 3))).to_dict()
    b = scan_nodes(NodeSet((0, 1, 3))).to_dict()
    assert a == b


def test_scan_past_fourteen():
    # no cap on N: minimal N = 15 gives the one gate T = 1 - 2^{1/15}, p = 1/225
    report = scan_nodes(NodeSet.minimal(15))
    assert [e.T for e in report.entries] == [report.best.T]
    assert report.best.T == pytest.approx(-math.expm1(math.log(2) / 15), rel=1e-13)
    assert report.best.p * 15**2 == pytest.approx(1.0, abs=1e-14)


def test_best_gate_ranked_past_the_float_range():
    # both roots' p underflow to 0.0 as floats; to 34 digits they are 2.8e-412
    # and 9.6e-360, so the second root is the best gate, not the first
    report = scan_nodes(NodeSet(tuple(sorted(random.Random(2).sample(range(495), 450)))))
    assert [e.p for e in report.entries] == [0.0, 0.0]
    assert report.best is report.entries[1]
    assert report.best.T == pytest.approx(0.6216887887514133, abs=1e-12)
    assert report.best.solution.p_decimal > 10**50 * report.entries[0].solution.p_decimal


def test_sweep_first_three():
    rows = sweep(1, 3)
    assert [r.N for r in rows] == [1, 2, 3]
    assert complex(rows[0].T).real == pytest.approx(-1.0)
    assert rows[0].p == pytest.approx(1.0, abs=1e-10)
    assert complex(rows[1].T).real == pytest.approx(1 - math.sqrt(2), abs=1e-10)
    assert rows[1].p == pytest.approx(0.25, abs=1e-8)
    assert complex(rows[2].T).real == pytest.approx(1 - 2 ** (1 / 3), abs=1e-10)
    assert rows[2].p == pytest.approx(1 / 9, abs=1e-8)


def test_sweep_single():
    rows = sweep(1, 1)
    assert len(rows) == 1 and rows[0].p == pytest.approx(1.0)


def test_sweep_scaling_law():
    for row in sweep(2, 10):
        assert row.p * row.N**2 == pytest.approx(1.0, abs=1e-8)
        assert complex(row.T).real == pytest.approx(optimal_transmission(row.N), abs=1e-10)


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(0, 3)
    with pytest.raises(ValueError):
        sweep(3, 2)

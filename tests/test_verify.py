import pytest

from rmoments import verify


def test_registered_claims_cover_core_statements():
    required = {
        "pt_product_invariance", "det_type3_lower", "det_prefactor_formula",
        "det_only_symmetric", "det_t4_nogo", "hodge_t4_nogo",
        "hodge_recoverable", "x123_vanishing", "kempe_rank1_obstruction",
        "kempe_rank2_recovery", "table_I_types",
    }
    assert required <= set(verify.ALL_CHECKS)


def test_quick_checks_pass():
    report = verify.run_suite(
        ["gram_values", "kernel_facts", "det_identity", "pt_invariant_flips"],
        seed=5,
    )
    assert report.passed
    doc = report.as_dict()
    assert doc["passed"] is True
    assert len(doc["checks"]) == 4
    for entry in doc["checks"]:
        assert {"claim", "statement", "trials", "max_deviation",
                "tolerance", "passed", "seconds"} <= set(entry)


def test_suite_deterministic_per_seed():
    a = verify.run_suite(["det_identity", "x123_vanishing"], seed=9).as_dict()
    b = verify.run_suite(["det_identity", "x123_vanishing"], seed=9).as_dict()
    for ca, cb in zip(a["checks"], b["checks"]):
        assert ca["max_deviation"] == cb["max_deviation"]
        assert ca["passed"] == cb["passed"]


def test_worker_pool_matches_sequential():
    seq = verify.run_suite(["gram_values", "det_identity"], seed=3, workers=1).as_dict()
    par = verify.run_suite(["gram_values", "det_identity"], seed=3, workers=2).as_dict()
    assert len(seq["checks"]) == len(par["checks"]) == 2
    for ca, cb in zip(seq["checks"], par["checks"]):
        ca.pop("seconds")
        cb.pop("seconds")
        assert ca == cb


def test_pool_no_larger_than_selection(monkeypatch):
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    report = verify.run_suite(["gram_values", "det_identity"], seed=3, workers=8)
    assert sizes == [2]
    assert [c.claim for c in report.checks] == ["gram_values", "det_identity"]
    verify.run_suite(["gram_values"], seed=3, workers=8)
    assert sizes == [2]  # one selected check runs in-process


def test_unknown_claim_rejected():
    with pytest.raises(KeyError):
        verify.run_suite(["no_such_claim"], seed=1)


def test_hodge_nogo_check_reports_honest_failure():
    """The registered rank-3 vanishing claim is numerically false; the check
    must say so rather than pass, and the structure check must pass."""
    result = verify.check_hodge_t4_nogo(seed=2, count=30)
    assert not result.passed
    assert result.max_deviation > 1e-3
    structure = verify.check_hodge_rank3_structure(seed=2, count=30)
    assert structure.passed


def test_checks_runnable_in_isolation():
    result = verify.ALL_CHECKS["x123_vanishing"](11)
    assert result.passed

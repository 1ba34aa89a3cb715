"""Demonstration chain tests."""

import pytest

from serfkit.demo import public_results, run_demo, summary_table


@pytest.fixture(scope="module")
def results():
    return run_demo(seed=7)


def test_stages_recover_ground_truth(results):
    assert results["absorption"]["he_amagat"] == pytest.approx(1.86, abs=0.02)
    assert results["absorption"]["n2_amagat"] == pytest.approx(0.34, abs=0.02)
    assert results["serf"]["t_se_s"] == pytest.approx(8.6e-6, rel=0.05)
    assert results["phase"]["f1_hz"] == pytest.approx(49.9, rel=0.02)
    assert results["phase"]["f2_hz"] == pytest.approx(68.8, rel=0.02)
    assert results["gradiometer"]["reduction_ratio"] >= 50.0
    assert results["gradiometer"]["single_floor_t_sqrthz"] == pytest.approx(8e-15, rel=0.10, abs=0)
    assert results["gradiometer"]["difference_floor_t_sqrthz"] == pytest.approx(
        1.2e-15, rel=0.10, abs=0
    )


def test_public_results_strip_intermediates(results):
    public = public_results(results)
    assert "_cal" not in public["gradiometer"]
    assert "_psd_top" not in public["gradiometer"]
    assert public["seed"] == 7


def test_summary_table_lists_reference_quantities(results):
    table = summary_table(results)
    for anchor in ("1.86", "0.34", "8.6", "1.163e14", "49.9", "68.8",
                   "58.6", ">= 50", "1.2", "6.81e-6", "2.6e-10"):
        assert anchor in table


def test_same_seed_reproducible(results):
    again = public_results(run_demo(seed=7))
    assert again == public_results(results)

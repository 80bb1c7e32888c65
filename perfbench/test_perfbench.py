"""Self-tests of the benchmark: the seeded generator, and tracing that is off
when untraced and changes no output when traced.

Run from the root of the repository: python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

import calibrate
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2, 17, 123456)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    for seed in SEEDS:
        first = json.dumps(workloads.make_items(workload, seed), sort_keys=True)
        assert first == json.dumps(workloads.make_items(workload, seed), sort_keys=True)


def test_seed_changes_arith_inputs():
    drawn = {json.dumps(workloads.make_items("arith", seed)) for seed in SEEDS}
    assert len(drawn) == len(SEEDS)


def test_arith_items_stay_in_range_and_have_goldens():
    golden = workloads.load_goldens("arith")
    for seed in SEEDS:
        for item in workloads.make_items("arith", seed):
            assert item["a"] + item["b"] <= workloads.ARITH_MAX_SUM
            assert item["name"] in golden


def test_program_receives_only_generated_text():
    from reltt.surface import parse, parse_term

    for item in workloads.arith_universe():
        if item["kind"] == "normalize":
            assert item["argv"][0] == "normalize" and len(item["argv"]) == 2
            parse_term(item["argv"][1])
        else:
            assert item["argv"] == ["check", item["path"]]
            parse(item["script"])


def test_corpus_and_library_items_are_the_golden_set():
    for workload in ("corpus", "library"):
        names = sorted(i["name"] for i in workloads.make_items(workload, 5))
        assert names == sorted(workloads.load_goldens(workload))


def test_reference_seconds_take_out_slices_and_scale_by_nearby_speed():
    sampler = calibrate.Sampler()
    ref = calibrate.REFERENCE_SLICE_S
    # Slices at 1.0 s and 1.5 s took twice the reference; one far away did not.
    sampler.samples = [(1.0, 2 * ref), (1.5, 2 * ref), (9.0, ref)]
    assert sampler.reference_seconds(0.9, 2.0) == pytest.approx((1.1 - 4 * ref) / 2)
    # With no slice near the interval, the median over all slices is used.
    assert sampler.reference_seconds(5.0, 5.5) == pytest.approx(0.5 / 2)


def test_install_rebinds_reimports_and_uninstall_restores():
    import reltt.cli  # noqa: F401  (loads every traced module)
    from reltt import cli, kernel, reduction, script, systemf

    before = spans.module_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert kernel.conv_check is reduction.conv_check
        assert kernel.conv_check is not before[("reduction", "conv_check")]
        assert script.check_declared is kernel.check_declared
        assert script.check_declared is not before[("kernel", "check_declared")]
        assert systemf.to_relpf is kernel.to_relpf
        assert cli.run_script is script.run_script
        assert cli.run_script is not before[("script", "run_script")]
        assert reduction.step.__wrapped__ is before[("reduction", "step")]
        # syntax helpers stay unwrapped.
        assert reduction.open_term is before[("syntax", "open_term")]
    finally:
        tracer.uninstall()
    after = spans.module_attributes()
    assert all(after[key] is obj for key, obj in before.items())


def _small_job(workload):
    wanted = {
        "corpus": {"check:derived", "check:negative/not-an-arrow", "analyze:datatypes"},
        "arith": {"normalize-1-1", "undecided-2-2-f16", "distinct-1-0"},
    }[workload]
    return [i for i in workloads.golden_items(workload) if i["name"] in wanted]


@pytest.mark.parametrize("workload", ["corpus", "arith"])
def test_traced_pass_matches_untraced_pass(workload):
    items = _small_job(workload)
    workloads.write_inputs(items)
    golden = workloads.load_goldens(workload)
    plain = run.run_pass(workload, items, trace=False)
    traced = run.run_pass(workload, items, trace=True)

    assert plain["changed_attributes"] == []
    reference = {i["name"]: o for i, o in zip(items, plain["outcomes"])}
    assert run.check_pass(workload, items, plain, golden, None) == []
    assert run.check_pass(workload, items, traced, golden, reference) == []
    steps = sum(golden[i["name"]]["steps"] for i in items)
    assert traced["layers"]["reduction.steps"] == steps
    again = run.run_pass(workload, items, trace=True)
    assert again["layers"]["reduction.steps"] == steps


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))

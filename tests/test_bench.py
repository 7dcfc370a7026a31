import importlib.util
from pathlib import Path

from cubeterm import blockers, cli, decide, fixture, relations

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_wraps_existing_names_and_restores_them():
    # the bench tracer swaps timing wrappers in for names of the library:
    # each must exist (entering fails on a missing one), and each must be
    # the original again after the traced phase
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = (blockers, cli, decide, relations)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert [vars(m).keys() for m in modules] == [saved.keys() for saved in before]
        wrapped = {f"{m.__name__}.{name}" for m, saved in zip(modules, before)
                   for name, value in saved.items() if vars(m)[name] is not value}
        assert {"cubeterm.blockers.is_subuniverse", "cubeterm.decide.membership",
                "cubeterm.decide.mix_family", "cubeterm.cli.run"} <= wrapped
        assert blockers.is_subuniverse(fixture("lattice2"), 0b11)
    assert [span.name for span in tracer.spans] == ["algebra.is_subuniverse"]
    for m, saved in zip(modules, before):
        assert vars(m).keys() == saved.keys()
        assert all(vars(m)[name] is value for name, value in saved.items()), m.__name__

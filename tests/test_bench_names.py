"""The benchmark wraps lawground attributes by name (bench/tracing.py).
Installing its wrappers raises AttributeError when a refactor removed or
renamed one, so that shows here rather than in a benchmark run."""

from pathlib import Path

from lawground import model, optim
from lawground import train as training

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_probes_and_tracer_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    def current():
        return (optim.AdamW.step, training.build_model, training.total_loss,
                model.GroundingModel.forward)

    originals = current()
    for wrappers in (tracing.Probes(), tracing.Tracer()):
        wrappers.install()
        try:
            assert optim.AdamW.step is not originals[0]  # both wrap it
        finally:
            wrappers.restore()
        assert current() == originals

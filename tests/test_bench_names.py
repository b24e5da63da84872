"""The benchmark wraps lawground attributes by name (bench/tracing.py) and
calls some directly (bench/checks.py). Installing its wrappers raises
AttributeError when a refactor removed or renamed one, and its
reference-forward check fails when GroundingModel.forward is gone or
changed, so that shows here rather than in a benchmark run."""

from pathlib import Path

from lawground import model, optim
from lawground import train as training
from lawground.config import TrainConfig
from lawground.synthground import generate_dataset, load_dataset

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


def test_benchmark_reference_forward_check_passes(monkeypatch, tmp_path):
    # a tiny 2-step checkpoint; the evaluated predictions come from
    # forward_chunk and predict_sample, as evaluate_model reads them
    monkeypatch.syspath_prepend(str(BENCH))
    import checks

    data = tmp_path / "ds"
    generate_dataset(data, seed=4, n_train=8, n_val=2, n_test=4,
                     resolution=32)
    cfg = TrainConfig(data_path=str(data), image_size=32, d_model=16,
                      blocks=4, heads=2, mlp_ratio=2, text_width=16,
                      text_layers=1, text_heads=2, max_len=10, groups=4,
                      rank_dw=4, reduction_r=4, pool_dim=8, steps=2,
                      batch_size=2, eval_every=2, log_every=1)
    training.train(cfg, tmp_path / "run")
    ckpt = tmp_path / "run" / "last.ckpt"
    mdl, cfg, _, _ = training.load_checkpoint(ckpt, data)
    samples = load_dataset(data, "test")
    assert len(samples) == 4
    pred = training.forward_chunk(mdl, samples)
    captured = [training.predict_sample(pred, b, cfg.threshold)
                for b in range(len(samples))]
    problems, worst = checks.oracle_forward(ckpt, data, "test", range(4),
                                            captured)
    assert problems == []
    assert worst <= checks.ORACLE_ATOL

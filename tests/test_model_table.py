"""The table of sampling models, the CLI's parser and the simulators' kernels
agree: each subcommand's own options are its record's params, in order, the
report's params are exactly those options, and each replicate draw calls its
kernel through the simulators module, where a wrapper put there sees it."""

import pytest

from condclt import cli, mc_engine, simulators

RUN_DESTS = ["out", "table", "seed", "reps", "z_gate", "ks_gate", "workers", "dump"]

# a valid argv and run params per experiment, and each sampling model's kernel
ARGV = {"alloc": ["--n", "30", "--m", "40"], "gnp": ["--n", "60", "--p", "0.05"],
        "gnm": ["--n", "60", "--m", "70"], "spacings": ["--n", "50"],
        "transfer": [], "monotone": [], "cwold": []}
PARAMS = {"alloc": {"n": 30, "m": 40, "max_k": 3}, "gnp": {"n": 60, "p": 0.05, "max_k": 3},
          "gnm": {"n": 60, "m": 70, "max_k": 3}, "spacings": {"n": 50, "a": 1.0}}
KERNELS = {"alloc": "allocation_loads", "gnp": "degree_loads", "gnm": "degree_loads",
           "spacings": "spacing_exceedances"}


def subparsers():
    """The subcommand parsers of the condclt parser, by name."""
    action, = (a for a in cli.build_parser()._actions if a.dest == "experiment")
    return action.choices


@pytest.mark.parametrize("model", list(mc_engine.EXPERIMENT_MODELS))
def test_options_are_the_record_params(model):
    dests = [a.dest for a in subparsers()[model]._actions]
    assert dests == ["help", *mc_engine.EXPERIMENT_MODELS[model].params, *RUN_DESTS]


def test_tables_cover_every_subcommand():
    assert list(subparsers()) == list(ARGV)
    assert list(PARAMS) == list(KERNELS) == list(mc_engine.EXPERIMENT_MODELS)


@pytest.mark.parametrize("experiment,names", [
    *[(model, record.params) for model, record in mc_engine.EXPERIMENT_MODELS.items()],
    ("transfer", ("lam", "K")), ("monotone", ("n", "max_m")), ("cwold", ())])
def test_report_params_are_the_experiment_options(experiment, names):
    args = cli.build_parser().parse_args([experiment, *ARGV[experiment]])
    assert tuple(cli._params(args)) == names


@pytest.mark.parametrize("model", list(mc_engine.EXPERIMENT_MODELS))
def test_each_draw_calls_its_kernel_at_call_time(model, monkeypatch):
    kernel, calls = getattr(simulators, KERNELS[model]), []

    def counting(*args):
        calls.append(args[0])
        return kernel(*args)

    monkeypatch.setattr(simulators, KERNELS[model], counting)
    mc_engine.run_experiment(model, PARAMS[model], 100, seed=0, workers=1)
    assert calls == [PARAMS[model]["n"]] * 100

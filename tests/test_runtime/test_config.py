"""RuntimeConfig validation and the solvers' single ``runtime=`` surface."""

import dataclasses
import inspect

import pytest

from repro.core.prox_newton import proximal_newton_distributed
from repro.core.rc_sfista_dist import rc_sfista_distributed
from repro.core.rc_sfista_spmd import rc_sfista_spmd
from repro.core.sfista_dist import sfista_distributed
from repro.distsim.bsp import BSPCluster
from repro.distsim.faults import FaultPlan, RetryPolicy
from repro.exceptions import ValidationError
from repro.obs import MetricsRegistry
from repro.runtime import (
    BACKENDS,
    FAILURE_POLICIES,
    RuntimeConfig,
    parse_backend_spec,
)


class TestValidation:
    def test_defaults_valid(self):
        cfg = RuntimeConfig()
        assert cfg.backend == "bsp"
        assert cfg.comm == "dense"
        assert cfg.on_nan is None

    def test_backends_constant(self):
        assert BACKENDS == ("bsp", "serial", "mp", "threads")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(backend="mpi"),
            dict(comm="compressed"),
            dict(on_nan="ignore"),
            dict(checkpoint_every=-1),
            dict(max_recoveries=-2),
            dict(mp_timeout=0.0),
            dict(mp_timeout=-5.0),
            dict(mp_timeout=float("inf")),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            RuntimeConfig(**kwargs)

    @pytest.mark.parametrize(
        "extra",
        [
            # p2p drops/delays and torn collectives only exist inside the
            # simulation engines; real pipes don't lose messages that way.
            dict(faults=FaultPlan(collective_drop_rate=0.1)),
            dict(faults=FaultPlan(drop_rate=0.1)),
            dict(faults=FaultPlan(delay_rate=0.1)),
            dict(cluster=BSPCluster(2, "comet_effective")),
            dict(recv_timeout=1.0),
        ],
    )
    def test_mp_backend_excludes_simulation_knobs(self, extra):
        """Simulation-engine faults/clusters/deadlines make no sense under mp."""
        with pytest.raises(ValidationError):
            RuntimeConfig(backend="mp", **extra)

    def test_mp_backend_accepts_real_process_chaos(self):
        """Crashes/stalls/corruption are real under mp; retry guards real acks."""
        cfg = RuntimeConfig(
            backend="mp",
            faults=FaultPlan(stall_rate=0.1, corrupt_rate=0.1),
            retry=RetryPolicy(),
            mp_failure_policy="respawn",
        )
        assert cfg.mp_failure_policy == "respawn"

    def test_failure_policies_constant(self):
        assert FAILURE_POLICIES == ("fail_fast", "respawn", "shrink")

    def test_loss_penalty_default_off(self):
        cfg = RuntimeConfig()
        assert cfg.loss is None and cfg.penalty is None

    def test_loss_penalty_specs_accepted(self):
        cfg = RuntimeConfig(loss="logistic", penalty="elastic_net:l2=0.5")
        assert cfg.loss == "logistic"
        assert cfg.penalty == "elastic_net:l2=0.5"

    def test_loss_penalty_instances_accepted(self):
        from repro.core.model import SquaredHingeLoss, make_penalty
        from repro.core.proximal import L1Prox

        cfg = RuntimeConfig(
            loss=SquaredHingeLoss(), penalty=make_penalty("l1", lam=0.1)
        )
        assert cfg.loss.name == "squared_hinge"
        cfg = RuntimeConfig(penalty=L1Prox(0.2))  # bare prox passes too
        assert cfg.penalty.lam == 0.2

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            (dict(loss="hinge"), "allowed values"),
            (dict(penalty="l0"), "allowed values"),
            (dict(penalty="elastic_net:l2=-1"), ">= 0"),
            (dict(penalty="elastic_net:ridge=2"), "does not accept"),
            (dict(penalty="group_l1:size=2.5"), "positive integer"),
            (dict(penalty="group_l1:size"), "key=value"),
            (dict(penalty="elastic_net:l2=much"), "must be numeric"),
        ],
    )
    def test_malformed_loss_penalty_rejected_at_config_build(self, kwargs, needle):
        """Satellite contract: bad specs die in RuntimeConfig.__post_init__,
        before any solver (or serve worker) starts."""
        with pytest.raises(ValidationError, match=needle):
            RuntimeConfig(**kwargs)

    def test_bad_failure_policy_rejected(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(mp_failure_policy="restart")

    def test_threads_backend_keeps_simulation_knobs(self):
        """threads runs its collectives on the BSP cluster — faults stay legal."""
        cfg = RuntimeConfig(backend="threads", faults=FaultPlan(collective_drop_rate=0.1),
                            retry=RetryPolicy())
        assert cfg.backend == "threads"

    @pytest.mark.parametrize(
        "extra",
        [
            dict(faults=FaultPlan(collective_drop_rate=0.1)),
            dict(retry=RetryPolicy()),
            dict(recv_timeout=1.0),
            dict(metrics=MetricsRegistry()),
        ],
    )
    def test_prebuilt_cluster_excludes_runtime_knobs(self, extra):
        cluster = BSPCluster(2, "comet_effective")
        with pytest.raises(ValidationError):
            RuntimeConfig(cluster=cluster, **extra)

    def test_replace_revalidates(self):
        cfg = RuntimeConfig(comm="sparse")
        assert cfg.replace(comm="auto").comm == "auto"
        assert cfg.comm == "sparse"  # frozen: original untouched
        with pytest.raises(ValidationError):
            cfg.replace(on_nan="nope")


@pytest.mark.collectives
class TestCollectivesV2Knobs:
    def test_defaults_off(self):
        cfg = RuntimeConfig()
        assert cfg.comm_topology == "flat"
        assert cfg.comm_compress == "none"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(comm_compress="topk:frac=0.1"),
            dict(comm_compress="quant:bits=8"),
            dict(comm_compress="topk"),  # default frac
            dict(machine="fat_tree", comm_topology="hier"),
            dict(machine="comet_4ppn", comm_topology="hier", comm_compress="quant:bits=4"),
        ],
    )
    def test_valid_combinations(self, kwargs):
        RuntimeConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            (dict(comm_topology="torus"), "comm_topology"),
            (dict(comm_compress="gzip"), "comm_compress"),
            (dict(comm_compress="topk:frac=0"), "frac"),
            (dict(comm_compress="topk:frac=1.5"), "frac"),
            (dict(comm_compress="quant:bits=0"), "bits"),
            (dict(comm_compress="quant:bits=64"), "bits"),
            # hier needs a hierarchical machine with node_size > 1 ...
            (dict(comm_topology="hier"), "hierarchical machine"),
            (dict(machine="comet_paper", comm_topology="hier"), "hierarchical machine"),
        ],
    )
    def test_invalid_rejected(self, kwargs, needle):
        with pytest.raises(ValidationError, match=needle):
            RuntimeConfig(**kwargs)

    def test_prebuilt_cluster_excludes_v2_knobs(self):
        with pytest.raises(ValidationError, match="supplied cluster"):
            RuntimeConfig(
                cluster=BSPCluster(2, "comet_effective"),
                comm_compress="topk:frac=0.1",
            )


RUNTIME_SOLVERS = [
    rc_sfista_distributed,
    sfista_distributed,
    proximal_newton_distributed,
    rc_sfista_spmd,
]
CONFIG_FIELDS = {f.name: f.default for f in dataclasses.fields(RuntimeConfig)}


@pytest.mark.parametrize("solver", RUNTIME_SOLVERS, ids=lambda s: s.__name__)
def test_runtime_is_the_only_runtime_surface(solver):
    """No solver parameter duplicates a config field; passing one is a TypeError."""
    params = inspect.signature(solver).parameters
    assert params["runtime"].default is None
    assert not set(params) & set(CONFIG_FIELDS)
    for name, default in CONFIG_FIELDS.items():
        with pytest.raises(TypeError, match=name):
            solver(None, 2, **{name: default})


class TestParseBackendSpec:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("bsp", ("bsp", None)),
            ("serial", ("serial", None)),
            ("mp", ("mp", None)),
            ("mp:4", ("mp", 4)),
            ("threads:16", ("threads", 16)),
        ],
    )
    def test_valid_specs(self, spec, expected):
        assert parse_backend_spec(spec) == expected

    @pytest.mark.parametrize(
        "spec", ["mpi", "mp:0", "mp:-2", "mp:four", "mp:4:2", "", ":4"]
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValidationError):
            parse_backend_spec(spec)

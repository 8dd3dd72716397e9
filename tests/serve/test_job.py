"""Job model: spec validation, serialization, and the execution path."""

from __future__ import annotations

import threading

import pytest

from repro.faults import DeviceFaults, FaultPlan, LinkFaults
from repro.serve import JobAborted, JobError, JobSpec, execute_job, workload_names


class TestJobSpec:
    def test_defaults_validate(self):
        JobSpec().validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("workload", "no-such-workload"),
            ("tenant", ""),
            ("num_devices", 0),
            ("max_attempts", 0),
            ("timeout_s", 0.0),
            ("timeout_s", -1.0),
            ("progress_every_events", 0),
            ("scheme", "no-such-scheme"),
            ("kernel", "bogus"),
            ("kernel", "sharded:2"),
            ("fuse", "false"),
            ("fuse", 0),
        ],
    )
    def test_bad_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            JobSpec(**{field: value}).validate()

    def test_string_fuse_from_json_rejected(self):
        # bool("false") is True: accepting it would run the job fused.
        with pytest.raises(ValueError, match="fuse"):
            JobSpec.from_dict({"fuse": "false"}).validate()

    def test_builtin_workloads_registered(self):
        names = workload_names()
        for expected in ("allreduce", "bt", "deadlock", "pingpong", "spin"):
            assert expected in names

    def test_scheme_resolves_by_value_and_name(self):
        from repro.vscc.schemes import CommScheme

        assert JobSpec(scheme="vdma").resolved_scheme() is not None
        by_name = JobSpec(scheme=CommScheme("vdma").name).resolved_scheme()
        assert by_name == JobSpec(scheme="vdma").resolved_scheme()
        assert JobSpec().resolved_scheme() is None

    def test_dict_round_trip(self):
        spec = JobSpec(
            workload="pingpong",
            params={"sizes": (256,), "iterations": 2},
            tenant="alice",
            priority=3,
            num_devices=2,
            scheme="vdma",
            kernel="serial",
            fuse=False,
            seed=7,
            timeout_s=1.5,
            max_attempts=3,
            progress_every_events=100,
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_dict_round_trip_with_fault_plan(self):
        plan = FaultPlan(
            seed=11,
            link_defaults=LinkFaults(drop=0.01),
            links={"pcie:0": LinkFaults(corrupt=0.1)},
            devices={1: DeviceFaults(dead_at_ns=5000.0)},
            max_retries=7,
        )
        spec = JobSpec(workload="spin", fault_plan=plan, seed=3)
        restored = JobSpec.from_dict(spec.to_dict())
        assert restored.fault_plan == plan
        assert restored == spec


class TestExecuteJob:
    def test_returns_fingerprint_and_metrics(self):
        events = []
        out = execute_job(
            JobSpec(workload="spin", params={"steps": 16, "step_ns": 250.0}),
            emit=events.append,
        )
        assert out["sim_now_ns"] == pytest.approx(4000.0)
        assert out["events"] >= 16
        assert out["metrics"]
        assert events[-1]["type"] == "metrics"

    @pytest.mark.parametrize(
        "workload, params",
        [
            ("spin", {"steps": 16}),
            ("pingpong", {"sizes": (256, 16384), "ranks": (0, 48)}),
            ("allreduce", {"nranks": 4, "length": 64}),
            ("bt", {"nranks": 4}),
            ("rpc", {"nranks": 2, "calls_per_rank": 4}),
        ],
    )
    def test_metrics_are_the_finished_systems_snapshot(
        self, monkeypatch, workload, params
    ):
        from repro.vscc import system as system_module

        built = []

        class Recording(system_module.VSCCSystem):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(system_module, "VSCCSystem", Recording)
        out = execute_job(JobSpec(workload=workload, params=params, num_devices=2))
        (system,) = built
        assert out["metrics"] == {
            str(k): float(v) for k, v in system.metrics.items()
        }

    def test_every_workload_covered_by_the_metrics_check(self):
        covered = {"spin", "pingpong", "allreduce", "bt", "rpc"}
        assert set(workload_names()) - {"deadlock"} == covered

    def test_deterministic_across_calls(self):
        spec = JobSpec(
            workload="pingpong",
            params={"sizes": (256, 4096)},
            num_devices=2,
            scheme="vdma",
            seed=5,
        )
        a, b = execute_job(spec), execute_job(spec)
        assert a["sim_now_ns"] == b["sim_now_ns"]
        assert a["events"] == b["events"]

    def test_chunked_progress_does_not_perturb_simulation(self):
        base = dict(workload="pingpong", params={"sizes": (256, 1024)}, num_devices=2)
        chunked_events = []
        chunked = execute_job(
            JobSpec(progress_every_events=25, **base), emit=chunked_events.append
        )
        plain = execute_job(JobSpec(progress_every_events=None, **base))
        assert chunked["sim_now_ns"] == plain["sim_now_ns"]
        assert chunked["events"] == plain["events"]
        progress = [e for e in chunked_events if e["type"] == "progress"]
        assert progress, "a 25-event chunk must emit progress on this workload"
        ticks = [e["events"] for e in progress]
        assert ticks == sorted(ticks)

    def test_simulation_error_carries_original_type(self):
        with pytest.raises(JobError) as excinfo:
            execute_job(JobSpec(workload="deadlock"))
        assert excinfo.value.error_type == "DeadlockError"
        assert "rank" in excinfo.value.message

    def test_rpc_lost_responses_surface_as_job_error(self, monkeypatch):
        import types

        import repro.apps.rpc

        def lossy_run_rpc(system, calls, params):
            return types.SimpleNamespace(completed=3, offered=4, run=None)

        monkeypatch.setattr(repro.apps.rpc, "run_rpc", lossy_run_rpc)
        with pytest.raises(JobError) as excinfo:
            execute_job(JobSpec(workload="rpc", params={"nranks": 2}))
        assert excinfo.value.error_type == "RpcLostResponses"
        assert excinfo.value.message == "rpc job lost responses: 3/4"

    def test_workload_value_errors_become_job_errors(self):
        with pytest.raises(JobError) as excinfo:
            execute_job(JobSpec(workload="pingpong", params={"ranks": (1, 1)}))
        assert excinfo.value.error_type == "ValueError"

    def test_abort_between_chunks(self):
        abort = threading.Event()
        abort.set()
        with pytest.raises(JobAborted):
            execute_job(
                JobSpec(
                    workload="spin",
                    params={"steps": 10_000, "step_ns": 10.0},
                    progress_every_events=50,
                ),
                abort=abort,
            )

    def test_fault_plan_runs_through_service_path(self):
        spec = JobSpec(
            workload="pingpong",
            params={"sizes": (256,), "iterations": 2},
            num_devices=2,
            scheme="remote-put-wcb",
            fault_plan=FaultPlan.lossy(0.05, seed=3),
            seed=3,
        )
        out = execute_job(spec)
        assert out["sim_now_ns"] > 0
        # lossy-but-recoverable: the resilience layer absorbed the faults
        assert out["degraded_devices"] == []

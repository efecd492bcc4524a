"""Tests for repro.exec.blas (single-threaded BLAS under the pool)."""

from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from repro.bench.netgen import canonical_net
from repro.core.analysis import DelayNoiseAnalyzer
from repro.exec import analyze_nets, build_snapshot
from repro.exec import blas
from repro.exec.blas import (
    blas_info,
    blas_libraries,
    blas_threads,
    set_blas_threads,
    single_threaded_blas,
)
from repro.exec.pool import _worker_init
from repro.obs import format_manifest, host_info
from repro.resilience import FaultPlan, clear_faults, install_faults

needs_openblas = pytest.mark.skipif(
    not blas_libraries(), reason="no OpenBLAS loaded in this process")


@pytest.fixture
def caller_threads():
    """Give every library a caller count of 2 (distinct from the 1 the
    context sets) and put the original counts back afterwards."""
    original = blas_threads()
    set_blas_threads(2)
    yield blas_threads()
    set_blas_threads(original)


@needs_openblas
class TestContext:
    def test_numpy_and_scipy_both_found(self):
        names = blas_info()["libraries"]
        assert any("openblas64_" in name for name in names), names
        assert len(names) >= 2, names

    def test_sets_one_and_restores(self, caller_threads):
        with single_threaded_blas():
            assert blas_threads() == [1] * len(caller_threads)
        assert blas_threads() == caller_threads

    def test_nested(self, caller_threads):
        with single_threaded_blas():
            with single_threaded_blas():
                assert set(blas_threads()) == {1}
            assert set(blas_threads()) == {1}
        assert blas_threads() == caller_threads

    def test_restores_on_exception(self, caller_threads):
        with pytest.raises(RuntimeError, match="boom"):
            with single_threaded_blas():
                raise RuntimeError("boom")
        assert blas_threads() == caller_threads

    def test_manifest_entry(self):
        info = host_info()["blas"]
        assert info == {"libraries": info["libraries"],
                        "analysis_threads": 1}
        text = format_manifest({"host": host_info()})
        assert "BLAS 1 thread(s) per analysis process" in text
        assert info["libraries"][0] in text


class TestNoLibrary:
    def test_discovery_without_openblas_finds_nothing(self, monkeypatch):
        monkeypatch.setattr(blas, "_loaded_openblas_paths", lambda: [])
        assert blas._discover() == []

    def test_context_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(blas, "_libraries", [])
        with single_threaded_blas():
            assert blas_threads() == []
        assert blas_info() == {"libraries": [], "analysis_threads": None}
        assert "no OpenBLAS found" in \
            format_manifest({"host": host_info()})

    def test_manifest_without_entry_renders(self):
        """Manifests written before the entry existed still render."""
        text = format_manifest({"host": {"cpu_count": 2}})
        assert "2 cpus)" in text
        assert "BLAS" not in text


@needs_openblas
class TestPool:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_worker_init_sets_one_thread(self, caller_threads, method):
        """Rebuilt pools and fresh (spawned) interpreters, which do not
        inherit the parent's setting, get one thread from the
        initializer."""
        snapshot = build_snapshot(DelayNoiseAnalyzer())
        with ProcessPoolExecutor(
                max_workers=1, mp_context=get_context(method),
                initializer=_worker_init,
                initargs=(snapshot, {}, None, False, None, None)) as pool:
            assert pool.submit(blas_threads).result() == \
                [1] * len(caller_threads)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_analyze_nets_restores_caller_count(self, caller_threads,
                                                jobs):
        """Inside the call the parent runs on one thread; afterwards the
        caller's count is back.  Every net fails at once by injection,
        so no characterization or analysis runs."""
        nets = [canonical_net(n_aggressors=1, name=f"bn{i}")
                for i in range(2)]
        inside = []
        install_faults(FaultPlan().add("analysis.net",
                                       action="convergence"))
        try:
            result = analyze_nets(
                nets, jobs=jobs, warm=False,
                on_heartbeat=lambda hb: inside.append(blas_threads()))
        finally:
            clear_faults()
        assert result.stats.failures == 2
        assert inside == [[1] * len(caller_threads)] * 2
        assert blas_threads() == caller_threads

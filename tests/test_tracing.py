"""The benchmark tracer's hold on the package: every name it wraps exists, and
the Wigner, Fresnel and spin layers fire its counters.

``bench/tracing.py`` wraps private kernels by name and reads their arguments,
so a kernel refactor that renames one or changes its arguments breaks the
traced benchmark run; these tests make that a tier-1 failure instead.
"""

import types
from pathlib import Path

import pytest

import phasewave

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    """bench/tracing.py as a module, compiled from its source (no bytecode written)."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_target_resolves(tracing):
    targets = tracing._targets(phasewave)
    assert targets
    for owner, attr, _, _ in targets:
        assert attr in owner.__dict__, (owner, attr)  # what install() replaces
        assert callable(getattr(owner, attr)), (owner, attr)


def test_traced_wigner_routes_fire_their_counters(tracing):
    fock, wigner = phasewave.fock, phasewave.wigner
    raw = fock._displacement_batch
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, phasewave)
    try:
        # building states displaces nothing: a coherent state is the kernel's start row
        fock.coherent_amplitudes(2.0)
        fock.DensityMatrix.mixture(
            [(fock.coherent_amplitudes(1.0), 0.5), (fock.coherent_amplitudes(-1.0j), 0.5)]
        )
        rho = fock.FockState.fock(1).density()
        grid = wigner.PhaseGrid(-2.0, 2.0, -2.0, 2.0, 3, 3)
        wigner.wigner_parity(rho, grid)
        wigner.wigner_direct(rho, grid)
    finally:
        tracing.uninstall(undo)
    assert fock._displacement_batch is raw
    counts = tracer.counts
    assert counts["fock.displacement.calls"] == 1  # the parity grid's corner check only
    assert counts["fock.displacement.entries"] == 4 * 65 * 2  # corners x levels x support
    assert counts["wigner.parity.calls"] == 1
    assert counts["wigner.parity.points"] == 9
    assert counts["wigner.direct.chord_evals"] > 0
    self_s, _ = tracer.self_times()
    assert {"fock.displacement", "wigner.parity", "wigner.direct"} <= set(self_s)


def test_traced_fresnel_and_spin_layers_fire_their_counters(tracing):
    fresnel, spinmap = phasewave.fresnel, phasewave.spinmap
    raw = fresnel._segment_integral
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, phasewave)
    try:
        rows = spinmap.band_table(7.5)
        spinmap.belts(0.5)
        geom = fresnel.FresnelGeometry(r0=100.0, b=100.0, wavelength=1.0)
        fresnel.zone_sum(geom, 4)
        fresnel.huygens_integral(geom, fresnel.zone_boundary_angle(geom, 3))
    finally:
        tracing.uninstall(undo)
    assert fresnel._segment_integral is raw
    counts = tracer.counts
    assert counts["spinmap.bands"] == len(rows) == 16
    assert counts["spinmap.belts_calls"] == 1  # the direct call: band_table builds no belts
    assert counts["fresnel.segments"] == 2  # one call per zone series, one per integral
    assert counts["fresnel.boundary_angles"] == 1
    self_s, _ = tracer.self_times()
    assert {"spinmap", "fresnel"} <= set(self_s)

"""Golden-regression fixtures: committed snapshots that catch numerical drift.

Each golden case pins the exact-solver labels (fields, transmissions,
adjoint gradient, residual) of a fixed seed/config.  Tier-1 runs compare
against the committed ``tests/golden/*.npz`` snapshots, so *silent* numerical
drift introduced by any PR — operator assembly, engine defaults, monitor
changes — fails loudly instead of shifting every downstream result.

Regenerate intentionally with::

    python -m pytest tests/test_golden.py --update-golden

and commit the refreshed files together with the change that moved the
numbers (the diff is then an explicit, reviewable statement of the drift).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.labels import extract_labels_batch
from repro.devices.factory import make_device
from repro.fdfd.nonlinear import KerrNonlinearity
from repro.invdes.adjoint import Sweep

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SEED = 2026

# Tolerances are loose enough for cross-platform BLAS variation, tight enough
# that any change a user could notice in labels trips the comparison.
FIELD_RTOL = 1e-6
SCALAR_ATOL = 1e-8

# ``kerr_limiter`` pins a *converged nonlinear fixed point* (Newton, direct
# inner solves): drift in the Kerr iteration, the effective-permittivity
# update or the nonlinear adjoint shows up here even if the linear tiers
# are untouched.
CASES = {
    "bending": dict(domain=3.0, design_size=1.4, dl=0.1),
    "crossing": dict(domain=3.0, design_size=1.4, dl=0.1),
    "kerr_limiter": dict(domain=3.0, design_size=1.4, dl=0.1),
}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"golden_{name}.npz"


def compute_case(name: str) -> dict:
    """The golden payload: exact labels of one fixed design."""
    device = make_device(name, **CASES[name])
    density = np.random.default_rng(GOLDEN_SEED).uniform(
        0.2, 0.8, size=device.design_shape
    )
    nonlinearity = KerrNonlinearity(rtol=1e-10) if device.chi3 else None
    labels = extract_labels_batch(
        device,
        density,
        with_gradient=True,
        engine="direct",
        stage="golden",
        sweep=Sweep(nonlinearity=nonlinearity),
    )
    arrays = {"density": density}
    records = []
    for i, label in enumerate(labels):
        arrays[f"ez_{i}"] = label.ez
        arrays[f"adjoint_gradient_{i}"] = label.adjoint_gradient
        records.append(
            {
                "spec_index": label.spec_index,
                "wavelength": label.wavelength,
                "transmissions": dict(label.transmissions),
                "figure_of_merit": label.figure_of_merit,
                "objective_value": label.objective_value,
                "maxwell_residual": label.maxwell_residual,
            }
        )
    arrays["__header__"] = np.frombuffer(
        json.dumps({"seed": GOLDEN_SEED, "records": records}).encode(), dtype=np.uint8
    )
    return arrays


def load_golden(path: Path) -> tuple[dict, list[dict]]:
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(bytes(archive["__header__"].tobytes()).decode())
        arrays = {name: archive[name] for name in archive.files if name != "__header__"}
    return arrays, header["records"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_labels(name, update_golden):
    path = golden_path(name)
    current = compute_case(name)
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        np.savez_compressed(path, **current)
        pytest.skip(f"golden fixture {path.name} regenerated")
    assert path.is_file(), (
        f"missing golden fixture {path}; run "
        f"`python -m pytest tests/test_golden.py --update-golden` and commit it"
    )
    golden_arrays, golden_records = load_golden(path)

    np.testing.assert_array_equal(current["density"], golden_arrays["density"])
    for i, record in enumerate(golden_records):
        ez, golden_ez = current[f"ez_{i}"], golden_arrays[f"ez_{i}"]
        assert ez.shape == golden_ez.shape
        drift = np.linalg.norm(ez - golden_ez) / np.linalg.norm(golden_ez)
        assert drift < FIELD_RTOL, f"field drift {drift:.2e} on spec {i}"

        grad = current[f"adjoint_gradient_{i}"]
        golden_grad = golden_arrays[f"adjoint_gradient_{i}"]
        scale = max(np.abs(golden_grad).max(), 1e-30)
        np.testing.assert_allclose(
            grad, golden_grad, atol=FIELD_RTOL * scale,
            err_msg=f"adjoint-gradient drift on spec {i}",
        )

        header = json.loads(
            bytes(np.asarray(current["__header__"]).tobytes()).decode()
        )
        got = header["records"][i]
        assert got["wavelength"] == record["wavelength"]
        assert set(got["transmissions"]) == set(record["transmissions"])
        for port, value in record["transmissions"].items():
            assert got["transmissions"][port] == pytest.approx(value, abs=SCALAR_ATOL)
        for key in ("figure_of_merit", "objective_value", "maxwell_residual"):
            assert got[key] == pytest.approx(record[key], abs=SCALAR_ATOL), key

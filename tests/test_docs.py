"""Documentation-rot gates: the docs must stay executable and complete.

The README quickstart is *executed* (not just rendered), README links must
resolve, the engine-registry table must cover every registered engine, every
engine name the docs and examples select must exist, the docs spell sweeps
as one ``Sweep`` object and name no removed engine API or factorization
store, and every example script must be documented and quick-mode capable
(CI runs them all with ``REPRO_EXAMPLES_QUICK=1``).
"""

import re
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
README = REPO / "README.md"


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    """The ten-line quickstart is executable documentation — run it."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README.md lost its quickstart code block"
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(blocks[0], "README-quickstart", "exec"), namespace)
    # The snippet's artifacts and final served result are real.
    assert (tmp_path / "shards").is_dir()
    assert (tmp_path / "surrogate.npz").is_file()
    assert np.isfinite(namespace["served"].ez).all()


def test_readme_links_resolve():
    for link in re.findall(r"\]\(([^)#]+)\)", README.read_text()):
        if not link.startswith(("http://", "https://")):
            assert (REPO / link).exists(), f"README links to missing {link}"
    for doc in (REPO / "docs" / "architecture.md", REPO / "docs" / "examples.md"):
        assert doc.is_file(), f"missing {doc}"


def test_readme_engine_table_covers_registry():
    import repro.surrogate  # noqa: F401 - registers the "neural" tier

    from repro.fdfd.engine import available_engines

    text = README.read_text()
    for name in available_engines():
        assert f"`{name}`" in text, f"engine {name!r} missing from README table"


#: Engine selections written as string literals: ``engine="name"``,
#: ``make_engine("name")``, the values of ``engine={...: "name"}`` mappings
#: and the generator CLI's ``--engine a=name,b=name``.
_ENGINE_LITERAL = re.compile(r"""(?:\bengine\s*=\s*|make_engine\(\s*)["']([^"']+)["']""")
_ENGINE_MAPPING = re.compile(r"\bengine\s*=\s*\{([^}]*)\}")
_MAPPING_VALUE = re.compile(r""":\s*["']([^"']+)["']""")
_ENGINE_FLAG = re.compile(r"--engine[ =]([\w.:<>/=,-]+)")


def _selected_engine_names(text: str) -> set[str]:
    names = set(_ENGINE_LITERAL.findall(text))
    for body in _ENGINE_MAPPING.findall(text):
        names.update(_MAPPING_VALUE.findall(body))
    for value in _ENGINE_FLAG.findall(text):
        names.update(item.partition("=")[2] or item for item in value.split(","))
    return names


def test_documented_engine_names_are_registered():
    """No doc or example selects an engine name the registry does not know."""
    from repro.fdfd.engine import available_engines, load_engine_tiers, split_engine_name

    load_engine_tiers()
    registered = set(available_engines())
    sources = [
        README,
        *sorted((REPO / "docs").glob("*.md")),
        *sorted((REPO / "examples").glob("*.py")),
    ]
    seen = set()
    for path in sources:
        for name in _selected_engine_names(path.read_text()):
            base, _ = split_engine_name(name)
            seen.add(base)
            assert base in registered, (
                f"{path.relative_to(REPO)} selects engine {name!r}, "
                f"not in the registry {sorted(registered)}"
            )
    assert {"direct", "recycled", "neural"} <= seen  # the scan finds real selections


#: Calls that take their operating points as one ``sweep=Sweep(...)``.
_SWEEP_CALL = re.compile(
    r"\b(GeneratorConfig|generate_dataset|extract_labels_batch|evaluate_specs)\("
)
_SWEEP_KWARG = re.compile(r"\b(wavelengths|intensities|chi3|nonlinearity)\s*=")


def _top_level_arguments(text: str, start: int) -> str:
    """The argument text of the call opened just before ``start``, with every
    nested parenthesized group (``Sweep(...)`` at any depth) left out."""
    depth, kept = 0, []
    for char in text[start:]:
        if char == ")" and depth == 0:
            break
        depth += (char == "(") - (char == ")")
        if depth == 0 and char != ")":
            kept.append(char)
    return "".join(kept)


def _loose_sweep_kwargs(text: str) -> list[str]:
    found = []
    for call in _SWEEP_CALL.finditer(text):
        top_level = _top_level_arguments(text, call.end())
        found.extend(f"{call[1]}({name}=...)" for name in _SWEEP_KWARG.findall(top_level))
    return found


def test_docs_spell_sweeps_as_one_object():
    """The sweep axes travel as ``sweep=Sweep(...)``, never as loose kwargs."""
    assert _loose_sweep_kwargs("GeneratorConfig(chi3=..., intensities=...)")
    assert _loose_sweep_kwargs(
        "GeneratorConfig(sweep=Sweep(nonlinearity=KerrNonlinearity(chi3=1.0)), chi3=1.0)"
    ) == ["GeneratorConfig(chi3=...)"]
    assert not _loose_sweep_kwargs("evaluate_specs(sweep=Sweep(wavelengths=[1.5]))")
    for path in [README, *sorted((REPO / "docs").glob("*.md"))]:
        loose = _loose_sweep_kwargs(path.read_text())
        assert not loose, f"{path.relative_to(REPO)} shows {loose}; pass sweep=Sweep(...)"


#: Engine API replaced by the one condensing rule (``port_rows`` plus
#: ``resolve_engine(engine, design_region=...)``).
_REMOVED_ENGINE_API = ("exterior_eps", "selects_direct", "selects_recycled", "reduces_to_ports")


def test_docs_name_no_removed_engine_api():
    import repro.fdfd.engine as engine_module

    for name in _REMOVED_ENGINE_API:
        assert not hasattr(engine_module, name), name
    sources = [
        README,
        *sorted((REPO / "docs").glob("*.md")),
        *sorted((REPO / "examples").glob("*.py")),
    ]
    for path in sources:
        text = path.read_text()
        for name in _REMOVED_ENGINE_API:
            assert name not in text, f"{path.relative_to(REPO)} names the removed {name!r}"


#: The deleted cross-process factorization store and its options: one
#: in-memory ``FactorizationCache`` per process serves every engine.
_STORE_NAME = re.compile(
    r"FileFactorizationStore|factorization[_-]store|REPRO_FACTORIZATION_STORE"
    r"|attach_store|warm_from_store"
)


def test_docs_name_no_factorization_store():
    """No doc or example reaches for the deleted factorization store."""
    from repro.fdfd.engine import FactorizationCache, RecycledEngine

    assert _STORE_NAME.findall(
        "GeneratorConfig(factorization_store=dir); --factorization-store d"
    ) == ["factorization_store", "factorization-store"]
    assert not _STORE_NAME.findall("FactorizationCache(maxsize=4); workspace.store(key, ez)")
    assert not hasattr(FactorizationCache, "attach_store")
    assert not hasattr(RecycledEngine, "warm_from_store")
    sources = [
        README,
        *sorted((REPO / "docs").glob("*.md")),
        *sorted((REPO / "examples").glob("*.py")),
    ]
    for path in sources:
        found = sorted(set(_STORE_NAME.findall(path.read_text())))
        assert not found, f"{path.relative_to(REPO)} names the deleted store: {found}"


_RESULT_CACHE_NAME = re.compile(r"REPRO_RESULT_CACHE_SIZE|clear_result_cache|_RESULT_CACHE\b")


def test_docs_name_no_result_cache():
    """No doc or example reaches for the deleted end-to-end result cache."""
    import repro.fdfd.simulation as simulation_module

    assert _RESULT_CACHE_NAME.findall(
        "REPRO_RESULT_CACHE_SIZE=0; clear_result_cache(); _RESULT_CACHE.get(key)"
    ) == ["REPRO_RESULT_CACHE_SIZE", "clear_result_cache", "_RESULT_CACHE"]
    assert not _RESULT_CACHE_NAME.findall("_NORMALIZATION_CACHE; result_cache_stats()")
    assert not hasattr(simulation_module, "clear_result_cache")
    assert not hasattr(simulation_module, "_RESULT_CACHE")
    sources = [
        README,
        *sorted((REPO / "docs").glob("*.md")),
        *sorted((REPO / "examples").glob("*.py")),
    ]
    for path in sources:
        found = sorted(set(_RESULT_CACHE_NAME.findall(path.read_text())))
        assert not found, f"{path.relative_to(REPO)} names the deleted result cache: {found}"


def test_examples_documented_and_quick_capable():
    examples_doc = (REPO / "docs" / "examples.md").read_text()
    scripts = sorted((REPO / "examples").glob("*.py"))
    assert scripts, "examples/ is empty?"
    for path in scripts:
        assert f"`{path.name}`" in examples_doc, (
            f"{path.name} has no walkthrough in docs/examples.md"
        )
        assert "REPRO_EXAMPLES_QUICK" in path.read_text(), (
            f"{path.name} does not support quick mode (CI runs all examples "
            "with REPRO_EXAMPLES_QUICK=1)"
        )


def test_benchmark_records_readme_mentions_exist():
    """Every BENCH_*.json named in the README is actually committed."""
    text = README.read_text()
    for name in re.findall(r"`(BENCH_\w+\.json)`", text):
        assert (REPO / "benchmarks" / name).is_file(), f"{name} not committed"

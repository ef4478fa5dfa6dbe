"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

import pytest
from hypothesis import settings

from repro.bio import DarwinEngine, DatabaseProfile, SequenceDatabase
from repro.core.engine import (
    BioOperaServer,
    InlineEnvironment,
    ProgramRegistry,
    ProgramResult,
)


#: the store's dict-model state machine at depth: CI's chaos job runs
#: ``tests/store/test_kvstore_model.py --hypothesis-profile deep``.
settings.register_profile("deep", max_examples=600)


@pytest.fixture(scope="session")
def small_db() -> SequenceDatabase:
    """A small real sequence database (session-scoped: generation costs)."""
    return SequenceDatabase.synthetic(
        "mini_db", 24, seed=11, mean_length=60.0, min_length=25,
        max_length=200, family_fraction=0.4, family_size=3,
        mutation_rate=0.2,
    )


@pytest.fixture(scope="session")
def small_profile(small_db) -> DatabaseProfile:
    return DatabaseProfile.from_database(small_db)


@pytest.fixture(scope="session")
def darwin_real(small_db, small_profile) -> DarwinEngine:
    return DarwinEngine(
        small_profile, database=small_db, mode="real",
        match_threshold=60.0, seed=5,
    )


@pytest.fixture()
def darwin_modeled(small_profile) -> DarwinEngine:
    return DarwinEngine(
        small_profile, mode="modeled", match_threshold=60.0, seed=5,
    )


def constant_program(outputs: Dict[str, Any],
                     cost: float = 1.0) -> Callable:
    """A program that always returns the same outputs."""
    def fn(inputs, ctx):
        return ProgramResult(dict(outputs), cost=cost)
    return fn


def echo_program(cost: float = 1.0) -> Callable:
    """A program whose outputs are its inputs."""
    def fn(inputs, ctx):
        return ProgramResult(dict(inputs), cost=cost)
    return fn


def make_inline_server(
    programs: Optional[Dict[str, Callable]] = None,
    nodes: Optional[Dict[str, int]] = None,
    seed: int = 0,
) -> Tuple[BioOperaServer, InlineEnvironment]:
    """A server wired to an inline environment with the given programs."""
    registry = ProgramRegistry()
    for name, fn in (programs or {}).items():
        registry.register(name, fn)
    server = BioOperaServer(registry=registry, seed=seed)
    environment = InlineEnvironment(nodes=nodes)
    server.attach_environment(environment)
    return server, environment


def run_process(
    ocr_source: str,
    programs: Dict[str, Callable],
    inputs: Optional[Dict[str, Any]] = None,
    extra_templates: Tuple[str, ...] = (),
) -> Tuple[BioOperaServer, InlineEnvironment, str]:
    """Define templates, launch the last one, run to quiescence."""
    server, environment = make_inline_server(programs)
    for source in extra_templates:
        server.define_template_ocr(source)
    server.define_template_ocr(ocr_source)
    template_name = None
    for line in ocr_source.splitlines():
        line = line.strip()
        if line.startswith("PROCESS "):
            template_name = line.split()[1]
            break
    instance_id = server.launch(template_name, inputs or {})
    environment.run_instance(instance_id)
    return server, environment, instance_id

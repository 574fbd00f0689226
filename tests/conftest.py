"""Shared fixtures: small seeded datasets and paper-shaped configurations.

Everything is session-scoped — datasets and matcher caches are expensive to
build, deterministic, and read-only from the tests' perspective.  A caching
matcher keys its pair cache by entity id, so each dataset fixture gets its
own: datasets reuse ids for different records.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.baselines import BasicConfig
from repro.blocking import books_scheme, citeseer_scheme
from repro.core import books_config, citeseer_config
from repro.data import Dataset, Entity, make_books, make_citeseer
from repro.mapreduce import Cluster, CostModel
from repro.mechanisms import PSNM, SortedNeighborHint
from repro.similarity import books_matcher, citeseer_matcher

# Hypothesis profiles: "dev" explores freely; "ci" is fully deterministic
# (derandomized, fixed example budget) so the property suite can never
# flake or shrink differently between CI runs.  Select with
# ``HYPOTHESIS_PROFILE=ci`` (the CI workflow exports it).
settings.register_profile("dev", max_examples=30)
settings.register_profile(
    "ci",
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session")
def citeseer_small() -> Dataset:
    """~600 publication entities with ground truth."""
    return make_citeseer(600, seed=3)


@pytest.fixture(scope="session")
def citeseer_medium() -> Dataset:
    """~1200 publication entities for end-to-end runs."""
    return make_citeseer(1200, seed=7)


@pytest.fixture(scope="session")
def books_small() -> Dataset:
    """~600 book entities with ground truth."""
    return make_books(600, seed=11)


@pytest.fixture(scope="session")
def shared_citeseer_matcher():
    """A caching matcher reused across every test on ``citeseer_small``."""
    return citeseer_matcher(cache=True)


@pytest.fixture(scope="session")
def shared_citeseer_medium_matcher():
    """``citeseer_medium``'s own caching matcher (its ids overlap small's)."""
    return citeseer_matcher(cache=True)


@pytest.fixture(scope="session")
def shared_books_matcher():
    """A caching matcher reused across every test on ``books_small``."""
    return books_matcher(cache=True)


@pytest.fixture()
def small_cluster() -> Cluster:
    """A 3-machine cluster (6 map / 6 reduce slots)."""
    return Cluster(3)


@pytest.fixture()
def citeseer_cfg(shared_citeseer_matcher):
    """Paper CiteSeerX configuration with the shared caching matcher."""
    return citeseer_config(matcher=shared_citeseer_matcher)


@pytest.fixture()
def citeseer_medium_cfg(shared_citeseer_medium_matcher):
    """Paper CiteSeerX configuration for ``citeseer_medium`` runs."""
    return citeseer_config(matcher=shared_citeseer_medium_matcher)


@pytest.fixture()
def books_cfg(shared_books_matcher):
    """Paper OL-Books configuration with the shared caching matcher."""
    return books_config(matcher=shared_books_matcher)


@pytest.fixture()
def basic_cfg(shared_citeseer_matcher):
    """Basic-baseline configuration for citeseer data (Basic F, w=15)."""
    return BasicConfig(
        scheme=citeseer_scheme(),
        matcher=shared_citeseer_matcher,
        mechanism=SortedNeighborHint(),
        window=15,
    )


def toy_people() -> Dataset:
    """The paper's Table I toy dataset (nine people records)."""
    rows = [
        (1, "John Lopez", "HI"),
        (2, "John Lopez", "HI"),
        (3, "John Lopez", "AZ"),
        (4, "Charles Andrews", "LA"),
        (5, "Gharles Andrews", "LA"),
        (6, "Mary Gibson", "AZ"),
        (7, "Chloe Matthew", "AZ"),
        (8, "William Martin", "AZ"),
        (9, "Joey Brown", "LA"),
    ]
    clusters = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 3, 8: 4, 9: 5}
    entities = [
        Entity(id=i, attrs={"name": name, "state": state}) for i, name, state in rows
    ]
    return Dataset(entities=entities, clusters=clusters, name="toy-people")


@pytest.fixture(scope="session")
def toy_people_dataset() -> Dataset:
    return toy_people()

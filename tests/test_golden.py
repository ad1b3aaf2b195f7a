"""Learn and discretize artifacts pinned by their sha256 digests.

The search caches family scores and policy solves; a cache that returned a
stale or reordered value would change an artifact byte somewhere.  Each
case runs the CLI on one small mixed table: ``x2`` and ``x4`` hold the
simulator's latent codes, declared discrete, and the continuous columns are
rounded to two decimals so that repeated values reach the multinomial
density model.  The digests were recorded before the caches existed.
"""

import hashlib
import itertools
import json
from unittest import mock

import numpy as np
import pytest

from mixedbn import dataset, load_dataset, load_schema
from mixedbn.cli import main
from oracles import reference_csv_values

LEARN_ARTIFACTS = (".structure.json", ".structure.dot", ".policy.json", ".trace.jsonl")

# (dirichlet mode, policy prior, density) -> digest of each learn artifact.
LEARN_GOLDEN = {
    ("bdeu", "poisson", "multinomial"): {
        ".structure.json": "7288de1a5ae46282cf67c382f5f2d39eafdc15f150943075aee7415a0f575266",
        ".structure.dot": "4c7d0bbba07622b7baa7b65405ad4c663b00ab1696c42b686183458f4f62ee63",
        ".policy.json": "2910cc66c596c6464e4e713aa2c1da43fac1b50d9c90fd141f9fd0332db7b9d8",
        ".trace.jsonl": "63f5a40046fc1d130b574e6e22694eaceba987e0ff472e511a48048bedcf1681",
    },
    ("bdeu", "poisson", "uniform"): {
        ".structure.json": "a9e05b6457d6812ded6f2bf1d5ff45b1a4afde4278b9039e5afe3d81aa196a7e",
        ".structure.dot": "17f8f23dc8d3adde9ce5068553d8b9a296f2800d913b3ef45dda9f122822bb64",
        ".policy.json": "c1013f2ffd8c53cc57134eaf58159a2254d216a4617630f91ef0eec9d98a36fc",
        ".trace.jsonl": "62cb0a0a7a5e45600d881b40398cf645d815d11083dafa6cc225e922e0b45f9e",
    },
    ("bdeu", "uniform", "multinomial"): {
        ".structure.json": "7288de1a5ae46282cf67c382f5f2d39eafdc15f150943075aee7415a0f575266",
        ".structure.dot": "4c7d0bbba07622b7baa7b65405ad4c663b00ab1696c42b686183458f4f62ee63",
        ".policy.json": "2910cc66c596c6464e4e713aa2c1da43fac1b50d9c90fd141f9fd0332db7b9d8",
        ".trace.jsonl": "468a1ae8948155a02246cebdb53ad9a29f1126cdb7da44fa14e748220f407ea3",
    },
    ("bdeu", "uniform", "uniform"): {
        ".structure.json": "7288de1a5ae46282cf67c382f5f2d39eafdc15f150943075aee7415a0f575266",
        ".structure.dot": "4c7d0bbba07622b7baa7b65405ad4c663b00ab1696c42b686183458f4f62ee63",
        ".policy.json": "6a2ad413bc79caef9c655ef8b3abba43e23c716b691dd3546bbff389fd3839e9",
        ".trace.jsonl": "c17c708cd5dcca15157a3c72de4bb6dd98b6c614a19e6225879145c251f170ff",
    },
    ("k2", "poisson", "multinomial"): {
        ".structure.json": "eb57caa83c5d8ff608ff0ce5f35b0bb8ec789a0030695b2cee0be3163bab2152",
        ".structure.dot": "7321e2157b64b155675a8d79287273ff270f81135565869d8ce235cb5c1e6a09",
        ".policy.json": "0a1d526fd57c01cfd9c173b22b9d953a26b840af731954edadb33297f217e110",
        ".trace.jsonl": "006c9cfec7f547a49ab77d8b2d5c1bd38ee057b99aff47688a027d6143237fef",
    },
    ("k2", "poisson", "uniform"): {
        ".structure.json": "5e4d2f30fa95cdd13de2fabb4dc3c8bd08348b5551064ad59fae388efd4831a7",
        ".structure.dot": "f38b6ec442531c1493b0e1dcc1a99f192c567721aa0b79f602e519aa8a460fe8",
        ".policy.json": "31cdd892d7aa7a73ddf4c75a19119200dc63955e72b0e6d7a275e67aba50d8cc",
        ".trace.jsonl": "bf35181a78605982cf84b96f5fe03576cc45846647df5b13084ba927f3b261b0",
    },
    ("k2", "uniform", "multinomial"): {
        ".structure.json": "b3cc8dd37f38968bbc920c446ebfa055d6c3cc59053b18ab8caabc5cff591bdd",
        ".structure.dot": "c61b5c40d9019a8c94e53ce535acecb87bbdccffbfd9334cd34ca36ee1dc55b3",
        ".policy.json": "22d4c5fcd588d42453fa5fe5b7cda6bbd2466dd65a3d7ed2a518a9ff344f4669",
        ".trace.jsonl": "987895f2632a5feccb67d243952614770c47c171b3f4bf94b46fbb4c1aa4b956",
    },
    ("k2", "uniform", "uniform"): {
        ".structure.json": "193222d139036cc886fc2fd659ad16c63bcd8c63e82287d2e22cc644f1679426",
        ".structure.dot": "3672cb376782177ec3f7e0fa93fc203a132726ed04398aeeb8b58114f60676b8",
        ".policy.json": "4232aea20e184dc68e736f213696fa7e0841a83980de3dd748e961058d0496a2",
        ".trace.jsonl": "b781457a854ece935e728552763ae9077328d0cb9403932812028a904f3e3e25",
    },
}

DISCRETIZE_GOLDEN = {
    "fit.json": "54cf80f8b4d9b865bdabad0c19766d0fda124bb6ca73b48dd5dd3c895b3b54a2",
    "fit.data.csv": "80dcf2fa6fb55c57a69846e4028df36098eed515898d5fc35be1e264be8eaa44",
}

PRIOR_FLAGS = {
    "k2": (),
    "bdeu": ("--ess", "1"),
    "uniform": (),
    "poisson": ("--policy-prior", "poisson:2"),
}
DISCRETE = (1, 3)
DENSITY_FLAGS = {"uniform": (), "multinomial": ("--density", "multinomial")}


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """Data and schema paths of the mixed table."""
    root = tmp_path_factory.mktemp("golden")
    sim = root / "sim"
    rc = main([
        "simulate", "--random", "6,3,2", "--n", "80", "--seed", "11",
        "--out", str(sim),
    ])
    assert rc == 0
    header, *rows = (root / "sim.csv").read_text().splitlines()
    _, *latent = (root / "sim.latent.csv").read_text().splitlines()
    lines = [header]
    for row, codes in zip(rows, latent):
        cells, code_cells = row.split(","), codes.split(",")
        cells = [f"{float(c):.2f}" for c in cells]
        for i in DISCRETE:
            cells[i] = code_cells[i]
        lines.append(",".join(cells))
    data = root / "mixed.csv"
    data.write_text("\n".join(lines) + "\n")
    schema = [
        {"name": name, "kind": "discrete", "arity": 3}
        if i in DISCRETE else {"name": name, "kind": "continuous"}
        for i, name in enumerate(header.split(","))
    ]
    schema_path = root / "mixed.schema.json"
    schema_path.write_text(json.dumps(schema))
    return data, schema_path


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "mode,policy_prior,density",
    list(
        itertools.product(
            ("k2", "bdeu"), ("uniform", "poisson"), ("uniform", "multinomial")
        )
    ),
)
def test_learn_artifacts(tmp_path, table, mode, policy_prior, density):
    data, schema = table
    out = tmp_path / "fit"
    rc = main([
        "learn", "--data", str(data), "--schema", str(schema),
        *PRIOR_FLAGS[mode], *PRIOR_FLAGS[policy_prior], *DENSITY_FLAGS[density],
        "--r-max", "4", "--out", str(out),
    ])
    assert rc == 0
    got = {suffix: digest(tmp_path / ("fit" + suffix)) for suffix in LEARN_ARTIFACTS}
    assert got == LEARN_GOLDEN[(mode, policy_prior, density)]


def test_discretize_artifacts(tmp_path, table):
    data, schema = table
    out = tmp_path / "fit.json"
    rc = main([
        "discretize", "--data", str(data), "--schema", str(schema),
        "--ess", "1", "--policy-prior", "poisson:2", "--out", str(out),
    ])
    assert rc == 0
    got = {name: digest(tmp_path / name) for name in ("fit.json", "fit.data.csv")}
    assert got == DISCRETIZE_GOLDEN


def test_the_table_loads_without_the_cell_loop(table, monkeypatch):
    """Valid input never takes the cell-by-cell parse, which is there only
    to name a bad cell."""
    data, schema = table
    monkeypatch.setattr(
        dataset, "_parse_cells", mock.Mock(side_effect=AssertionError("cell loop"))
    )
    ds = load_dataset(data, load_schema(schema))
    assert np.array_equal(ds.values, reference_csv_values(data))

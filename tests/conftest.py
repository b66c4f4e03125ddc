from __future__ import annotations

from pathlib import Path

import pytest

from flowcheck import matching

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def ui_policy_text() -> str:
    return (DATA / "policies" / "ui-policy.yaml").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def command_policy_text() -> str:
    return (DATA / "policies" / "command-policy.yaml").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def topology_text() -> str:
    return (DATA / "topology" / "ics.yaml").read_text(encoding="utf-8")


def scenario_path(name: str) -> Path:
    return DATA / "scenarios" / name


@pytest.fixture(scope="session")
def scenario_texts() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((DATA / "scenarios").glob("*.yaml"))
    }


class InsertedRows(list):
    """Every row ``matching._grow`` appends to a table, as (id of the
    table's row list, id of the row's member), in the order appended."""

    def by_table(self) -> dict[int, list[int]]:
        """The member ids inserted into each table, sorted."""
        tables: dict[int, list[int]] = {}
        for table, member in self:
            tables.setdefault(table, []).append(member)
        return {table: sorted(members) for table, members in tables.items()}

    def one_per_member(self, policies, *modes) -> bool:
        """Whether the rows inserted, ever, are exactly one per member of
        the set's lineage in each of the modes' tables, and no other."""
        lineage = policies.lineage
        members = sorted(map(id, lineage))
        return self.by_table() == {id(lineage.tables[mode][1]): members for mode in modes}


@pytest.fixture
def inserted_rows(monkeypatch) -> InsertedRows:
    inserted, grow = InsertedRows(), matching._grow

    def counting(lineage, mode):
        start = len(lineage.tables[mode][1]) if mode in lineage.tables else 0
        table = grow(lineage, mode)
        # row i is lineage member i: the rows appended are those of the members past start
        inserted.extend((id(table[1]), id(member)) for member in lineage[start:len(table[1])])
        return table

    monkeypatch.setattr(matching, "_grow", counting)
    return inserted

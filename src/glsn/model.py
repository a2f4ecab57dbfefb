"""Domain records shared across the pipeline.

Missing optional values are represented as None, never as 0: downstream
regressions exclude countries with incomplete data rather than imputing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


class DataError(ValueError):
    """Malformed or inconsistent input data."""


def _check_finite(owner: str, what: str, value: float | None) -> None:
    """The finiteness rule: a missing value (None) passes, nan and inf do not."""
    if value is not None and not math.isfinite(value):
        raise DataError(f"{owner}: non-finite {what}")


def check_capacity(route_id: str, capacity_teu: float | None) -> None:
    """The capacity rule: a known capacity is finite, then non-negative."""
    owner = f"route {route_id!r}"
    _check_finite(owner, f"capacity {capacity_teu}", capacity_teu)
    if capacity_teu is not None and capacity_teu < 0:
        raise DataError(f"{owner}: negative capacity {capacity_teu}")


@dataclass(frozen=True)
class Port:
    port_id: str
    name: str
    country_code: str

    def __post_init__(self):
        if not self.port_id:
            raise DataError("port_id must be non-empty")
        if not self.country_code:
            raise DataError(f"port {self.port_id!r}: country_code must be non-empty")


@dataclass(frozen=True)
class ServiceRoute:
    route_id: str
    port_calls: tuple[str, ...]  # call sequence as recorded, repeats retained
    capacity_teu: float | None = None

    def __post_init__(self):
        check_capacity(self.route_id, self.capacity_teu)

    @property
    def distinct_ports(self) -> frozenset[str]:
        return frozenset(self.port_calls)


@dataclass(frozen=True)
class CountryEcon:
    country_code: str
    trade_value_usd: float | None = None
    export_usd: float | None = None
    import_usd: float | None = None
    gdp_usd: float | None = None
    lsci: float | None = None
    capital_lat: float | None = None
    capital_lon: float | None = None
    trade_value_change_usd: float | None = None

    def __post_init__(self):
        owner = f"country {self.country_code!r}"
        for f in fields(self)[1:]:
            _check_finite(owner, f.name, getattr(self, f.name))
        if self.capital_lat is not None and not -90 <= self.capital_lat <= 90:
            raise DataError(f"{owner}: latitude out of range")
        if self.capital_lon is not None and not -180 <= self.capital_lon <= 180:
            raise DataError(f"{owner}: longitude out of range")


@dataclass(frozen=True)
class BilateralRecord:
    country_i: str
    country_j: str
    btv_usd: float
    lsbci: float | None = None

    def __post_init__(self):
        if self.country_i == self.country_j:
            raise DataError(f"bilateral record {self.country_i!r}: countries must differ")
        owner = f"bilateral pair ({self.country_i}, {self.country_j})"
        _check_finite(owner, "trade value", self.btv_usd)
        if self.btv_usd < 0:
            raise DataError(f"{owner}: negative trade value")
        _check_finite(owner, "lsbci", self.lsbci)

    @property
    def pair(self) -> tuple[str, str]:
        return (min(self.country_i, self.country_j), max(self.country_i, self.country_j))


# the columns of each input CSV, in order; those of countries.csv after the code,
# and lsbci, are optional
ROUTE_COLUMNS = ("route_id", "seq", "port_id")
ROUTE_META_COLUMNS = ("route_id", "capacity_teu")
PORT_COLUMNS = tuple(f.name for f in fields(Port))
ECON_COLUMNS = tuple(f.name for f in fields(CountryEcon))
BILATERAL_COLUMNS = tuple(f.name for f in fields(BilateralRecord))


@dataclass
class ValidationReport:
    retained: list[ServiceRoute] = field(default_factory=list)
    dropped_domestic: list[str] = field(default_factory=list)
    dropped_too_few_ports: list[str] = field(default_factory=list)
    unresolved_ports: dict[str, list[str]] = field(default_factory=dict)  # route -> bad ids
    countries_missing_econ: list[str] = field(default_factory=list)

    @property
    def drop_count(self) -> int:
        return (
            len(self.dropped_domestic)
            + len(self.dropped_too_few_ports)
            + len(self.unresolved_ports)
        )

    def summary_lines(self) -> list[str]:
        return [
            f"retained routes: {len(self.retained)}",
            f"dropped domestic: {len(self.dropped_domestic)}",
            f"dropped <2 distinct ports: {len(self.dropped_too_few_ports)}",
            f"routes with unresolved ports: {len(self.unresolved_ports)}",
            f"countries lacking econ data: {len(self.countries_missing_econ)}",
        ]

"""World domain types, region ingestion, and synthetic world generation."""

from .generate import GenerationError, allocate_proportionally, generate_world
from .regions import (
    MunicipalitySpec,
    RegionData,
    RegionDataError,
    list_regions,
    load_region_data,
)
from .types import (
    FEMALE,
    MALE,
    Citizens,
    Families,
    Firms,
    Houses,
    Location,
    World,
    distance,
)

__all__ = [
    "FEMALE",
    "MALE",
    "Citizens",
    "Families",
    "Firms",
    "GenerationError",
    "Houses",
    "Location",
    "MunicipalitySpec",
    "RegionData",
    "RegionDataError",
    "World",
    "allocate_proportionally",
    "distance",
    "generate_world",
    "list_regions",
    "load_region_data",
]

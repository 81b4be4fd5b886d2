"""Shared exception types."""


class ProfileError(ValueError):
    """A device profile is malformed or internally inconsistent."""


class MappingError(ValueError):
    """A mapping does not fit its workload or device profile."""


class DatasetError(ValueError):
    """A dataset file does not have the layout `save_dataset` writes."""


class WeightsError(ValueError):
    """A weights file does not have the layout `save_weights` writes."""


class SearchSpaceError(RuntimeError):
    """An exhaustive enumeration would exceed the configured cap."""

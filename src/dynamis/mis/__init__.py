from .simple import SimpleMis
from .incremental import IncrementalMis
from .twolevel import TwoLevelMis
from .implicit import ImplicitMis

__all__ = ["SimpleMis", "IncrementalMis", "TwoLevelMis", "ImplicitMis"]

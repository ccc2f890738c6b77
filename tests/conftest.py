"""State samplers shared with the acceptance battery in luinv.selftest."""

from luinv.selftest import _anchored as anchored_state
from luinv.selftest import _gaussian as gaussian_state
from luinv.selftest import _tame as tame_element

__all__ = ["anchored_state", "gaussian_state", "tame_element"]

"""functorlab: exact functor-category computations over prime fields."""

__version__ = "0.1.0"

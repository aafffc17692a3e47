"""Step-function calculus for singular values, symmetric function spaces,
traces, and generalized determinants, with a seeded verification harness.

Each layer module (specdet.stepfn, ..., specdet.verify) declares its public
names in its own __all__; importing specdet itself loads no layer."""

__version__ = "0.1.0"

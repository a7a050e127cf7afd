"""Empty: this module defines no name.  It stays because perfbench's span
tracer imports every layer module it lists, this one included.  The scalar
formulas it once held are the test suite's oracles, in tests/oracles.py.
"""

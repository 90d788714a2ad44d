"""CuLi's string library.

The paper: "Since CUDA lacks a string library, we implemented our own
with functions to parse strings. These functions are also used in the CPU
tests for comparison reasons." Likewise here: the parser, printer and
environment lookup all route their character work through these routines,
so both device back-ends charge identical op mixes.
"""

from .cstring import str_cmp
from .numparse import classify_atom, parse_number, AtomClass
from .numformat import format_float, format_int

__all__ = [
    "str_cmp",
    "parse_number",
    "classify_atom",
    "AtomClass",
    "format_int",
    "format_float",
]

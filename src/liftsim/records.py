"""The base of liftsim's record classes (internal).

A record's fields are the parameters of its own ``__init__``, in order, read
once when the class is created.  From that list the base gives ``==`` field
by field between two records of one class (``NotImplemented`` for any other
class) and the repr ``Name(field=value, ...)``.  A class declared with
``frozen=True`` is also hashable, by the tuple of its fields, and refuses
assignment with an ``AttributeError``; its ``__init__`` sets its fields with
``object.__setattr__``.  Its hash is computed once and kept on the instance
(outside the fields).  Mutable records are unhashable.

The same list writes a record as JSON data: ``fields_obj`` maps each field's
name to its value through ``json_data``, which renders each Fraction as its
exact ``num/den`` string while the object is built.  ``dump_json`` writes such
data as text, byte for byte as ``json.dumps(data, sort_keys=True, indent=2)``.
"""

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .exact import frac_str

_WORDS = {None: "null", True: "true", False: "false"}
_SCALARS = {str: _quote, int: int.__repr__}


def json_data(value):
    """`value` as JSON data: a Fraction as its num/den string (frac_str), a
    record as its to_obj(), a list item by item, anything else as it is."""
    if value.__class__ is Fraction:  # exact type tests: isinstance on Fraction is slow
        return frac_str(value)
    if value.__class__ is list:
        return [json_data(v) for v in value]
    if isinstance(value, Record):
        return value.to_obj()
    return value


def dump_json(data) -> str:
    """`data` as json.dumps(data, sort_keys=True, indent=2) writes it: JSON
    data of dicts with str keys, lists, tuples, str, int, bool and None (a
    TypeError for anything else, floats and other keys included).  A list
    whose items are all str or all int is written by one join."""
    return _dump(data, "\n")


def _dump(value, newline: str) -> str:
    """`value` written at the indent that `newline` (a newline and the
    indent) ends in."""
    cls = value.__class__
    if cls is str:
        return _quote(value)
    if cls is int:
        return int.__repr__(value)
    if cls is bool or value is None:
        return _WORDS[value]
    inner = newline + "  "
    if cls is dict:
        if not value:
            return "{}"
        items = (f"{_quote(k)}: {_dump(value[k], inner)}" for k in sorted(value))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if cls is list or cls is tuple:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(write, value) if write else (_dump(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


class Record:
    _fields: tuple = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        if frozen:
            cls.__hash__ = Record._hash
            cls.__setattr__ = Record._refuse_set
            cls.__delattr__ = Record._refuse_delete

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def fields_obj(self, *omit) -> dict:
        """The fields by name, but those named in `omit`, as JSON data."""
        return {f: json_data(getattr(self, f)) for f in self._fields if f not in omit}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _hash(self) -> int:
        """The hash of the fields, kept on the instance: a subtree shared by
        many parents is hashed once."""
        kept = self.__dict__.get("_hash_value")
        if kept is None:
            kept = hash(self._values())
            object.__setattr__(self, "_hash_value", kept)
        return kept

    def _refuse_set(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _refuse_delete(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

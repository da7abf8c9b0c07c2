"""Shared environment-variable conventions.

Every boolean ``$REPRO_*`` switch in the library goes through
:func:`env_bool`, so they all agree on what counts as *off*: an unset
variable, the empty string, and the words ``0``/``false``/``no``/``off``
(case-insensitive, surrounding whitespace ignored).  Anything else —
``1``, ``true``, ``yes``, ``on``, or any other non-empty token — is
*on*.

This exists because the obvious ``bool(os.environ.get(NAME))`` treats
``REPRO_NO_NUMPY=0`` as *enabled* (any non-empty string is truthy),
which inverts the user's intent.
"""

from __future__ import annotations

import os

#: Spellings that read as "disabled" (compared case-insensitively).
FALSE_WORDS = frozenset({"", "0", "false", "no", "off"})


def env_bool(name: str, default: bool = False) -> bool:
    """Interpret the environment variable ``name`` as a boolean switch.

    Unset returns ``default``; a set value returns ``False`` for the
    :data:`FALSE_WORDS` spellings and ``True`` for everything else.
    """
    value = os.environ.get(name)
    if value is None:
        return default
    return value.strip().lower() not in FALSE_WORDS

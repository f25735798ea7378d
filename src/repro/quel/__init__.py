"""QUEL with the paper's ordering extensions (section 5.6).

Supported statements::

    range of n1, n2 is NOTE
    retrieve [unique] (n1.name, total = count(n1.name)) [where qual]
        [sort by expr [descending]] [limit N]
    append to NOTE (name = 1, pitch = "g")
    replace n1 (pitch = "a") where n1.name = 4
    delete n1 where n1.name = 4
    explain [analyze] <any of the above>

Qualifications combine comparisons with ``and``/``or``/``not``, the two
text gates and the four entity operators, which take range variables as
operands::

    matches(t.title, "prelude")
    similar_to(t.title, "prelude no. 7", 0.3)
    COMPOSER.composition is COMPOSITION
    n1 before n2 in note_in_chord
    n1 after n2
    n1 under c1 in note_in_chord

``in order_name`` may be omitted when the operand types determine the
ordering uniquely; ``similarity(t.title, "prelude")`` scores a row in a
target or a sort key.  Use :class:`QuelSession` for the stateful ``range
of`` workflow, or :func:`execute_quel` for one-shot programs.
"""

from repro.quel.parser import parse_quel
from repro.quel.executor import QuelSession, execute_quel

__all__ = ["parse_quel", "QuelSession", "execute_quel"]

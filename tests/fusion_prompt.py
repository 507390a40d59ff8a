"""The inverse of `chimera.render_fusion_prompt`, for tests that check the
render/parse round trip: a prompt must list its source and candidates so
that they can be read back exactly, whatever backticks or spaces they hold.
"""

import re

from mtforge.errors import ValidationError


def _unfence_at(text: str, pos: int) -> tuple[str, int]:
    """Parse one fenced block starting at pos; returns (content, end pos)."""
    match = re.compile(r"`+").match(text, pos)
    if not match:
        raise ValidationError(f"expected a backtick fence at offset {pos}")
    width = match.end() - match.start()
    closing = re.compile("(?<!`)" + "`" * width + "(?!`)")
    close = closing.search(text, match.end())
    if not close:
        raise ValidationError("unterminated backtick fence")
    content = text[match.end() : close.start()]
    if len(content) >= 2 and content[0] == " " and content[-1] == " ":
        content = content[1:-1]
    return content, close.end()


def parse_fusion_prompt(prompt: str) -> tuple[str, str, str, list[str]]:
    """Inverse of render_fusion_prompt.

    Returns (source_language_name, target_language_name, source_text,
    candidates). Raises ValidationError when the layout does not match.
    """
    header = re.match(
        r"Analyze the following multiple (.+?) translations of the (.+?) segment "
        r"surrounded in triple backticks",
        prompt,
    )
    if not header:
        raise ValidationError("not a fusion prompt")
    tgt, src = header.group(1), header.group(2)
    marker = f"\nThe {src} segment:\n"
    found = prompt.find(marker)
    if found < 0:
        raise ValidationError("source segment header not found")
    start = found + len(marker)
    source_text, pos = _unfence_at(prompt, start)
    list_marker = f"\n\nThe multiple {tgt} translations:\n"
    if not prompt.startswith(list_marker, pos):
        raise ValidationError("candidate list header not found")
    pos += len(list_marker)
    candidates: list[str] = []
    index = 1
    while pos < len(prompt):
        prefix = f"{index}. "
        if not prompt.startswith(prefix, pos):
            raise ValidationError(f"expected candidate {index} at offset {pos}")
        candidate, pos = _unfence_at(prompt, pos + len(prefix))
        candidates.append(candidate)
        index += 1
        if pos < len(prompt):
            if prompt[pos] != "\n":
                raise ValidationError(f"unexpected content at offset {pos}")
            pos += 1
    if len(candidates) < 2:
        raise ValidationError("fusion prompt lists fewer than 2 candidates")
    return src, tgt, source_text, candidates

"""robots.txt parsing + robots_level evaluation.

From-scratch parser with the semantics the reference's pipeline applies
(``control/robots/robots_parser_mapper.py:12-119``):

* per-user-agent sections (``User-agent:`` lines group with following
  ``Allow:``/``Disallow:`` rules; UA match is case-insensitive substring);
* ``Allow:`` with empty path = allow everything (the mapper's documented fix);
* runs of ``**`` collapse to ``*`` before matching (preprocessing fix);
* wildcard ``*`` and end-anchor ``$`` in rule paths; longest-pattern-wins
  precedence, Allow wins ties;
* ``robots_level`` per URL (``robots_parser_mapper.py:88-99``, enum also at
  ``proto2/resource.proto:61-66``):
  0 = disallowed for us; 1 = no robots.txt; 2 = a major bot (Baiduspider /
  Googlebot) is allowed but our UA is not; 3 = allowed for our UA.

The level-2 distinction needs our-UA and major-bot evaluations, so
``robots_level`` takes all three verdicts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

OUR_AGENT = "spiderbot"
MAJOR_AGENTS = ("baiduspider", "googlebot")


@dataclass
class RuleSet:
    """Rules for one agent group: list of (allow, pattern), plus the
    group's Crawl-delay (GYM2008 category-4 directive — the reference's
    parser collects it, robotexclusionrulesparser.py:120,584; ``None``
    when the group declares none)."""

    rules: list[tuple[bool, str]] = field(default_factory=list)
    crawl_delay: float | None = None
    # (allow, pattern length, compiled pattern) per rule, built on first use
    _compiled: list = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def allowed(self, path: str) -> bool:
        if len(self._compiled) != len(self.rules):  # new rules appended
            self._compiled = [
                (allow, len(pat), _compile(pat)) for allow, pat in self.rules
            ]
        best_len = -1
        best_allow = True  # no matching rule → allowed
        for allow, plen, rx in self._compiled:
            if rx.match(path) is not None:
                if plen > best_len or (plen == best_len and allow and not best_allow):
                    best_len = plen
                    best_allow = allow
        return best_allow


def _compile(pattern: str) -> re.Pattern:
    """A rule path as an anchored regex: ``*`` any run, a trailing ``$``
    the end; the empty pattern matches every path."""
    rx = re.escape(pattern).replace(r"\*", ".*")
    if rx.endswith(r"\$"):
        rx = rx[:-2] + "$"
    return re.compile(rx)


_COLLAPSE_STARS = re.compile(r"\*{2,}")


def parse_robots(body: str) -> dict[str, RuleSet]:
    """Parse robots.txt → {lowercased user-agent token: RuleSet}."""
    groups: dict[str, RuleSet] = {}
    current: list[str] = []
    last_was_ua = False
    for raw_line in (body or "").splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, val = line.partition(":")
        key = key.strip().lower()
        val = _COLLAPSE_STARS.sub("*", val.strip())
        if key == "user-agent":
            if not last_was_ua:
                current = []
            ua = val.lower()
            current.append(ua)
            groups.setdefault(ua, RuleSet())
            last_was_ua = True
        elif key in ("allow", "disallow"):
            last_was_ua = False
            if not current:
                continue
            allow = key == "allow"
            if key == "disallow" and val == "":
                # empty Disallow = allow all (standard)
                continue
            if allow and val == "":
                # reference fix: bare "Allow:" means allow everything
                val = "/"
            for ua in current:
                groups[ua].rules.append((allow, val))
        elif key == "crawl-delay":
            last_was_ua = False
            if not current:
                continue
            try:
                d = float(val)
            except ValueError:
                continue
            if d > 0:
                for ua in current:
                    groups[ua].crawl_delay = d
        else:
            last_was_ua = False
    return groups


def _ruleset_for(groups: dict[str, RuleSet], agent: str) -> RuleSet | None:
    agent = agent.lower()
    best: str | None = None
    for ua in groups:
        if ua != "*" and (ua in agent or agent in ua):
            if best is None or len(ua) > len(best):
                best = ua
    if best is not None:
        return groups[best]
    return groups.get("*")


def agent_allowed(groups: dict[str, RuleSet], agent: str, path: str) -> bool:
    rs = _ruleset_for(groups, agent)
    return True if rs is None else rs.allowed(path)


def crawl_delay_for(
    groups: dict[str, RuleSet] | None, agent: str = OUR_AGENT
) -> float | None:
    """The Crawl-delay that applies to ``agent``: its best-matching UA
    group's declaration (same precedence walk as rule matching), else
    the ``*`` group's, else None."""
    if groups is None:
        return None
    rs = _ruleset_for(groups, agent)
    return rs.crawl_delay if rs is not None else None


def robots_level(groups: dict[str, RuleSet] | None, path: str) -> int:
    """0 disallow / 1 no-robots / 2 others-allowed-not-us / 3 allow."""
    if groups is None:
        return 1
    if agent_allowed(groups, OUR_AGENT, path):
        return 3
    if any(agent_allowed(groups, a, path) for a in MAJOR_AGENTS):
        return 2
    return 0


def is_fetchable(level: int, policy: str = "general") -> bool:
    """spider_type policies (robots_parser_mapper.py): 'own' obeys only our
    UA (level 3); 'general' passes if any major bot is allowed (level ≥ 2);
    'rush' ignores robots entirely."""
    if policy == "rush":
        return True
    if policy == "general":
        return level >= 2 or level == 1
    return level >= 3 or level == 1

"""Exception types shared across the package."""


class TraceParseError(ValueError):
    """A trace file contained something other than non-negative decimal integers."""


class ConfigurationError(ValueError):
    """A run was configured inconsistently (empty split, bad threshold, ...).

    ``ConfigurationError(rule, *fields)``: ``fields`` names the settings that ``rule``
    refuses, none when the data is at fault. The message puts them before the rule,
    joined by " and ": "sigma must lie in [0, 1], got 2"; ``naming`` puts other names there.
    """

    def __init__(self, rule: str, *fields: str):
        self.rule, self.fields = rule, fields
        super().__init__(self.naming(fields))

    def naming(self, names) -> str:
        return " ".join([" and ".join(names), self.rule]) if names else self.rule

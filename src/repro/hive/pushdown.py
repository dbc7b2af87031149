"""Predicate pushdown: column ranges, stripe admission, selectivity.

From a WHERE clause we extract per-column value constraints out of the
top-level AND conjuncts.  Those ranges drive three optimizations that are
central to the paper's results:

* **stripe pruning** — a plan admits only the ORC stripes whose min/max
  statistics may match (this is why date-targeted grid updates touch ~α
  of the data), and its splits carry them;
* **projection pushdown** — the scan only decodes referenced columns;
* **selectivity estimation** — the DualTable cost model's α/β estimate.
"""

from dataclasses import dataclass

from repro.hive import ast_nodes as ast
from repro.hive.expressions import Env, compile_expr, is_true, referenced_columns


@dataclass
class ColumnRange:
    """Conjunctive constraint on one column."""

    low: object = None
    high: object = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    in_set: frozenset = None

    def intersect(self, other):
        """Both constraints at once; ``self`` alone (still implied by
        the two) when their bounds cannot be ordered."""
        try:
            return self._intersect(other)
        except TypeError:
            return self

    def _intersect(self, other):
        merged = ColumnRange(self.low, self.high, self.low_inclusive,
                             self.high_inclusive, self.in_set)
        if other.low is not None and (merged.low is None
                                      or other.low > merged.low):
            merged.low, merged.low_inclusive = other.low, other.low_inclusive
        elif other.low is not None and other.low == merged.low:
            merged.low_inclusive = merged.low_inclusive and other.low_inclusive
        if other.high is not None and (merged.high is None
                                       or other.high < merged.high):
            merged.high, merged.high_inclusive = (other.high,
                                                  other.high_inclusive)
        elif other.high is not None and other.high == merged.high:
            merged.high_inclusive = (merged.high_inclusive
                                     and other.high_inclusive)
        if other.in_set is not None:
            merged.in_set = (other.in_set if merged.in_set is None
                             else merged.in_set & other.in_set)
        return merged

    def may_overlap(self, stat_min, stat_max):
        """Could any value in [stat_min, stat_max] satisfy this range?"""
        if stat_min is None or stat_max is None:
            return True     # all-null or unknown stats: cannot prune safely
        try:
            if self.in_set is not None:
                if not any(stat_min <= v <= stat_max for v in self.in_set):
                    return False
            if self.low is not None:
                if stat_max < self.low:
                    return False
                if stat_max == self.low and not self.low_inclusive:
                    return False
            if self.high is not None:
                if stat_min > self.high:
                    return False
                if stat_min == self.high and not self.high_inclusive:
                    return False
        except TypeError:
            return True     # mixed types: do not prune
        return True

    def overlap_fraction(self, stats, num_rows):
        """Rough fraction of a stripe's rows that may match.

        Uses min/max uniformity for numeric ranges and NDV (distinct
        count) for equality / IN-list constraints.
        """
        stat_min, stat_max = stats.get("min"), stats.get("max")
        if not self.may_overlap(stat_min, stat_max):
            return 0.0
        if stat_min is None or stat_max is None:
            return 1.0
        if self.in_set is not None:
            try:
                inside = sum(1 for v in self.in_set
                             if stat_min <= v <= stat_max)
            except TypeError:
                inside = len(self.in_set)
            ndv = max(1, stats.get("ndv", 0) or 1)
            return min(1.0, inside / ndv)
        if not isinstance(stat_min, (int, float)) \
                or not isinstance(stat_max, (int, float)) \
                or isinstance(stat_min, bool):
            return 1.0
        lo = self.low if self.low is not None else stat_min
        hi = self.high if self.high is not None else stat_max
        span = stat_max - stat_min
        if span <= 0:
            return 1.0
        overlap = max(0.0, min(hi, stat_max) - max(lo, stat_min))
        return min(1.0, overlap / span)


def extract_ranges(expr):
    """Column constraints implied by the required conjuncts of ``expr``."""
    ranges = {}
    if expr is None:
        return ranges
    for conjunct in _conjuncts(expr):
        name_range = _range_from_conjunct(conjunct)
        if name_range is None:
            continue
        name, col_range = name_range
        if name in ranges:
            ranges[name] = ranges[name].intersect(col_range)
        else:
            ranges[name] = col_range
    return ranges


def _conjuncts(expr):
    if isinstance(expr, ast.LogicalOp) and expr.op == "and":
        for operand in expr.operands:
            yield from _conjuncts(operand)
    else:
        yield expr


def _literal_value(expr):
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if isinstance(expr, ast.UnaryMinus) and isinstance(expr.operand,
                                                       ast.Literal):
        value = expr.operand.value
        if isinstance(value, (int, float)):
            return True, -value
    return False, None


def _range_from_conjunct(expr):
    if isinstance(expr, ast.BinaryOp) and expr.op in ("=", "<", "<=", ">",
                                                      ">="):
        column, op, value = None, expr.op, None
        ok, lit = _literal_value(expr.right)
        if isinstance(expr.left, ast.ColumnRef) and ok:
            column, value = expr.left, lit
        else:
            ok, lit = _literal_value(expr.left)
            if isinstance(expr.right, ast.ColumnRef) and ok:
                column, value = expr.right, lit
                flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
                op = flip.get(op, op)
        if column is None or value is None:
            return None
        name = column.name.lower()
        if op == "=":
            return name, ColumnRange(low=value, high=value,
                                     in_set=frozenset([value]))
        if op == "<":
            return name, ColumnRange(high=value, high_inclusive=False)
        if op == "<=":
            return name, ColumnRange(high=value)
        if op == ">":
            return name, ColumnRange(low=value, low_inclusive=False)
        if op == ">=":
            return name, ColumnRange(low=value)
    if isinstance(expr, ast.InList) and not expr.negated \
            and isinstance(expr.operand, ast.ColumnRef):
        values = []
        for item in expr.items:
            ok, lit = _literal_value(item)
            if not ok:
                return None
            if isinstance(lit, (set, frozenset)):
                values.extend(lit)      # materialized IN-subquery
            else:
                values.append(lit)
        try:
            low, high = min(values), max(values)
        except (TypeError, ValueError):
            return None     # empty, or values with no order: no range
        return expr.operand.name.lower(), ColumnRange(
            in_set=frozenset(values), low=low, high=high)
    return None


def admit_stripes(meta, projection, ranges):
    """The stripes of one ORC file that ``ranges`` admit: the one rule
    by which every read prunes stripes, applied at plan time.

    ``meta`` is the file's footer (an :class:`~repro.orc.OrcMetadata`),
    ``projection`` the column names a read decodes (None: all).  A
    stripe is admitted unless a range on one of the file's columns
    cannot overlap that column's min/max statistics.  Returns
    ``(row_spans, scan_bytes, read_bytes)``: the admitted stripes as
    ``{stripe index: [(first_row, first_row + rows)]}`` (what a split
    carries and :meth:`~repro.orc.OrcReader.batches` reads), and the
    projected bytes of every stripe and of the admitted ones.
    """
    names = [name.lower() for name, _ in meta.schema]
    tests = [(names.index(name), col_range)
             for name, col_range in (ranges or {}).items() if name in names]
    columns = range(len(names)) if projection is None else [
        meta.column_index(name) for name in projection]
    row_spans = {}
    scan_bytes = read_bytes = 0
    for stripe in meta.stripes:
        stripe_bytes = sum([stripe.columns[i]["length"] for i in columns])
        scan_bytes += stripe_bytes
        for index, col_range in tests:
            stats = stripe.stats(index)
            if not col_range.may_overlap(stats["min"], stats["max"]):
                break
        else:
            read_bytes += stripe_bytes
            first = stripe.first_row
            row_spans[stripe.index] = [(first, first + stripe.num_rows)]
    return row_spans, scan_bytes, read_bytes


def span_rows(row_spans):
    """How many rows ``row_spans`` (``{stripe: [(first, stop)]}``) name."""
    return sum([stop - start for runs in row_spans.values()
                for start, stop in runs])


def estimate_selection(readers, ranges):
    """Estimate (selected_rows, total_rows) across ORC readers.

    Stripe statistics only — no data reads, so this is what the DualTable
    cost evaluator can afford to do before choosing a plan.
    """
    total = 0
    selected = 0.0
    for reader in readers:
        lower = [n.lower() for n, _ in reader.schema]
        for stripe in reader.stripes:
            total += stripe.num_rows
            fraction = 1.0
            for name, col_range in ranges.items():
                lname = name.lower()
                if lname not in lower:
                    continue
                stats = stripe.stats(lower.index(lname))
                # Independence assumption: conjunct selectivities multiply.
                fraction *= col_range.overlap_fraction(stats,
                                                       stripe.num_rows)
                if fraction == 0.0:
                    break
            selected += fraction * stripe.num_rows
    return selected, total


def sample_selection(readers, schema, where, sample_rows=2000):
    """Estimate ``(ratio, total_rows)`` of ``where`` by evaluating it over
    a sample of about ``sample_rows`` rows spread across the readers:
    the fallback when the predicate has no extractable column ranges.
    Planners pass metadata views: the sample is charged nothing."""
    projection = [c.name for c in schema
                  if c.name.lower() in referenced_columns(where)]
    if not projection:
        projection = [schema.columns[0].name]
    env = Env()
    env.add_schema(projection)
    predicate = compile_expr(where, env)
    total = sum(r.num_rows for r in readers)
    sampled = 0
    matched = 0
    per_reader = max(1, sample_rows // max(1, len(readers)))
    for reader in readers:
        taken = 0
        for _, values in reader.rows(projection=projection):
            try:
                hit = is_true(predicate(values))
            except Exception:
                # Sampling is only an estimate: call the ratio unknown
                # and let the statement fail where the scan evaluates
                # this row, with a typed error.
                return 0.0, total
            if hit:
                matched += 1
            taken += 1
            if taken >= per_reader:
                break
        sampled += taken
    if sampled == 0:
        return 0.0, total
    return matched / sampled, total

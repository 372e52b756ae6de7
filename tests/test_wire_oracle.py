"""The level-row writer against the dict path it replaced.

The reference below is the earlier implementation: ``reference_fields``
rounds each number with ``float(f"{x:.12g}")``, ``reference_csv`` prints
each rounded value with ``.12g`` again, and the JSON documents are
``json.dumps(payload, indent=2)`` of the dict rows, with a sweep's swept
value rounded as every other number is.  The writer must print the same
bytes.
"""

import json
import math

from hypothesis import example, given, settings, strategies as st

from ncphase.cli import SWEEP_COLUMNS, _json_object, _json_value
from ncphase.fock import (
    LEVEL_COLUMNS,
    LevelRow,
    LevelTable,
    _LevelWriter,
    level_table_csv,
    level_table_json,
)


def reference_fields(row):
    numbers = (
        row.e_analytic,
        row.e_numeric.real,
        row.e_numeric.imag,
        abs(row.e_numeric - row.e_analytic),
        row.residual,
        row.overlap,
    )
    return dict(
        zip(LEVEL_COLUMNS, (row.n_plus, row.n_minus, *(float(f"{x:.12g}") for x in numbers)))
    )


def reference_csv(columns, records):
    lines = [",".join(columns)]
    lines.extend(",".join(f"{record[c]:.12g}" for c in columns) for record in records)
    return "\n".join(lines) + "\n"


def reference_sweep_rows(param, groups):
    return [{param: float(f"{value:.12g}"), **{c: reference_fields(row)[c] for c in SWEEP_COLUMNS}}
            for value, rows in groups for row in rows]


# Where repr and .12g change notation (1e-5 and 1e-4 below, 1e12 and 1e16
# above), values that round up to the next decade at 12 digits, the signed
# zero, the smallest subnormal, the largest float and the non-finite values.
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 9.9999999999951e-06,
    9.99999999999951e-05, -9.99999999999951e-05, 0.00999999999999951, 999999999999.5,
    1e12, 1e15, 9999999999999999.0, 1e16, 1.2345678901234567e16, 99999999999950000.0,
    1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf,
]
NUMBERS = st.one_of(st.sampled_from(EDGES), st.floats(), st.floats(-1e3, 1e3))
FINITE = st.one_of(st.sampled_from([x for x in EDGES if math.isfinite(x)]),
                   st.floats(allow_nan=False, allow_infinity=False))


def has_abs_err(row):
    """False where |E_numeric - E_analytic| overflows, which the solver
    rejects and both paths raise on."""
    try:
        abs(row.e_numeric - row.e_analytic)
    except OverflowError:
        return False
    return True


ROWS = st.lists(st.builds(
    LevelRow,
    n_plus=st.integers(0, 60),
    n_minus=st.integers(0, 60),
    e_analytic=NUMBERS,
    e_numeric=st.builds(complex, NUMBERS, NUMBERS),
    residual=NUMBERS,
    overlap=NUMBERS,
).filter(has_abs_err), max_size=3)
# Error text with quotes, backslashes, control and non-ASCII characters.
ERRORS = st.one_of(
    st.sampled_from(['hbar must be positive', 'bad "quoted" value \\ here',
                     "théta ≠ η\n\t… 漢字 \U0001f600"]),
    st.text(max_size=12),
)


@settings(max_examples=25, deadline=None)
@given(rows=ROWS, point=st.lists(FINITE, min_size=6, max_size=6), cutoff=st.integers(4, 60))
@example(rows=[LevelRow(0, 0, 1.0, complex(-0.0, 5e-324), 1e-5, 1e-4)],
         point=[1.0, 1.0, 1.0, 0.0, 0.0, 0.0], cutoff=4)
def test_spectrum_text_matches_the_dict_path(rows, point, cutoff):
    table = LevelTable(rows, [])
    records = [reference_fields(row) for row in rows]
    assert level_table_csv(table) == reference_csv(LEVEL_COLUMNS, records)
    # json.dumps, not ==, so that NaN compares by its spelling.
    assert json.dumps(level_table_json(table)) == json.dumps(records)
    parameters = dict(zip(("hbar", "m", "omega", "theta", "eta", "tau"), point))
    text = _json_object([
        ("parameters", _json_value(parameters)),
        ("cutoff", _json_value(cutoff)),
        ("levels", _LevelWriter().to_json([(None, rows)])),
    ])
    payload = {"parameters": parameters, "cutoff": cutoff, "levels": records}
    assert text == json.dumps(payload, indent=2) + "\n"


@settings(max_examples=25, deadline=None)
@given(
    param=st.sampled_from(["hbar", "m", "omega", "theta", "eta", "tau"]),
    groups=st.lists(st.tuples(NUMBERS, ROWS), max_size=3),
    failures=st.lists(st.tuples(NUMBERS, ERRORS), max_size=3),
)
@example(param="tau", groups=[], failures=[])
@example(param="hbar", groups=[(0.5, [])],
         failures=[(0.0, 'a "quoted" error'), (math.nan, "non-ASCII: θ η τ ħ")])
def test_sweep_text_matches_the_dict_path(param, groups, failures):
    writer = _LevelWriter(SWEEP_COLUMNS, lead=param)
    rows = reference_sweep_rows(param, groups)
    assert writer.to_csv(groups) == reference_csv((param, *SWEEP_COLUMNS), rows)
    failed = [{"param": param, "value": value, "error": error} for value, error in failures]
    text = _json_object([
        ("param", _json_value(param)),
        ("rows", writer.to_json(groups)),
        ("failures", _json_value(failed)),
    ])
    payload = {"param": param, "rows": rows, "failures": failed}
    assert text == json.dumps(payload, indent=2) + "\n"


def test_every_edge_value_prints_as_the_dict_path():
    # Each edge value in every number column, beside a plain value.
    n = len(EDGES)
    rows = [LevelRow(i % 7, i % 5, EDGES[i], complex(EDGES[(i + 1) % n], EDGES[(i + 2) % n]),
                     EDGES[(i + 3) % n], EDGES[(i + 4) % n]) for i in range(n)]
    rows += [LevelRow(1, 2, x, complex(0.25, x), x, 0.5) for x in EDGES]
    rows = list(filter(has_abs_err, rows))
    records = [reference_fields(row) for row in rows]
    assert level_table_csv(LevelTable(rows, [])) == reference_csv(LEVEL_COLUMNS, records)
    text = _json_object([("levels", _LevelWriter().to_json([(None, rows)]))])
    assert text == json.dumps({"levels": records}, indent=2) + "\n"
    groups = [(x, rows[:2]) for x in EDGES]
    writer = _LevelWriter(SWEEP_COLUMNS, lead="theta")
    expected = reference_sweep_rows("theta", groups)
    assert writer.to_csv(groups) == reference_csv(("theta", *SWEEP_COLUMNS), expected)
    text = _json_object([("rows", writer.to_json(groups))])
    assert text == json.dumps({"rows": expected}, indent=2) + "\n"


@settings(max_examples=25, deadline=None)
@given(values=st.lists(NUMBERS, min_size=1, max_size=4))
@example(values=[0.0034999999999999996, 0.004999999999999999, -0.0, 5e-324, math.nan])
def test_sweep_json_lead_reads_back_as_csv(values):
    # A swept value from numpy.linspace, such as 0.0034999999999999996,
    # reads back from the JSON rows as from the CSV text, 0.0035.
    row = LevelRow(0, 1, 2.0, complex(2.5, 0.0), 1e-15, 0.99)
    groups = [(value, [row]) for value in values]
    writer = _LevelWriter(SWEEP_COLUMNS, lead="tau")
    csv_leads = [line.split(",")[0] for line in writer.to_csv(groups).splitlines()[1:]]
    json_leads = [record["tau"] for record in json.loads(writer.to_json(groups))]
    assert json.dumps(json_leads) == json.dumps([float(text) for text in csv_leads])

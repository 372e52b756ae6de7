"""The level-row writer against the dict path it replaced.

The reference below is the earlier implementation: ``reference_fields``
rounds each number of a row, given as Python numbers, with
``float(f"{x:.12g}")``, ``reference_csv`` prints each rounded value with
``.12g`` again, and the JSON documents are ``json.dumps(payload,
indent=2)`` of the dict rows, with a sweep's swept value rounded as every
other number is.  The writer, given the rows as a level table's record
array, must print the same bytes.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ncphase.cli import SWEEP_COLUMNS, _json_object, _json_value
from ncphase.fock import (
    LEVEL_COLUMNS,
    LevelTable,
    _LevelWriter,
    level_table_csv,
)

# The fields of a level table's rows, in order.
FIELDS = [("n_plus", np.int64), ("n_minus", np.int64), ("e_analytic", np.float64),
          ("e_numeric", np.complex128), ("residual", np.float64), ("overlap", np.float64)]


def level_rows(rows):
    """The record array of (n_plus, n_minus, E_analytic, E_numeric, residual,
    overlap) rows, built from its columns as ``classify`` builds it."""
    columns = list(zip(*rows)) or [()] * len(FIELDS)
    return np.rec.fromarrays(
        [np.array(column, dtype=kind) for column, (_name, kind) in zip(columns, FIELDS)],
        dtype=FIELDS,
    )


def reference_fields(row):
    n_plus, n_minus, e_analytic, e_numeric, residual, overlap = row
    numbers = (
        e_analytic,
        e_numeric.real,
        e_numeric.imag,
        abs(e_numeric - e_analytic),
        residual,
        overlap,
    )
    return dict(zip(LEVEL_COLUMNS, (n_plus, n_minus, *(float(f"{x:.12g}") for x in numbers))))


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
FINITE_EDGES = [x for x in EDGES if math.isfinite(x)]
# Every number of a level row is finite (classify rejects the rest); a
# sweep's swept value is printed by json.dumps, which spells NaN and inf.
NUMBERS = st.one_of(st.sampled_from(EDGES), st.floats(), st.floats(-1e3, 1e3))
FINITE = st.one_of(st.sampled_from(FINITE_EDGES), st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-1e3, 1e3))


def has_finite_abs_err(row):
    """True where |E_numeric - E_analytic| is finite, as classify requires
    of every row it builds."""
    try:
        return math.isfinite(abs(row[3] - row[2]))
    except OverflowError:
        return False


ROWS = st.lists(st.tuples(
    st.integers(0, 60),
    st.integers(0, 60),
    FINITE,
    st.builds(complex, FINITE, FINITE),
    FINITE,
    FINITE,
).filter(has_finite_abs_err), max_size=3)
# np.abs gives 0.0403690171498 here, one bit from abs(complex).
PYTHON_ABS_ROW = (1, 0, 10.0, complex(9.959630982853637, -5.306239298056978e-07), 1e-15, 0.99)
# Error text with quotes, backslashes, control and non-ASCII characters.
ERRORS = st.one_of(
    st.sampled_from(['hbar must be positive', 'bad "quoted" value \\ here',
                     "théta ≠ η\n\t… 漢字 \U0001f600"]),
    st.text(max_size=12),
)


@settings(max_examples=25, deadline=None)
@given(rows=ROWS, point=st.lists(FINITE, min_size=6, max_size=6), cutoff=st.integers(4, 60))
@example(rows=[(0, 0, 1.0, complex(-0.0, 5e-324), 1e-5, 1e-4)],
         point=[1.0, 1.0, 1.0, 0.0, 0.0, 0.0], cutoff=4)
@example(rows=[PYTHON_ABS_ROW], point=[1.0, 1.0, 1.0, 0.02, 0.03, 0.005], cutoff=12)
def test_spectrum_text_matches_the_dict_path(rows, point, cutoff):
    table = LevelTable(level_rows(rows), [])
    records = [reference_fields(row) for row in rows]
    assert level_table_csv(table) == reference_csv(LEVEL_COLUMNS, records)
    parameters = dict(zip(("hbar", "m", "omega", "theta", "eta", "tau"), point))
    text = _json_object([
        ("parameters", _json_value(parameters)),
        ("cutoff", _json_value(cutoff)),
        ("levels", _LevelWriter().to_json([(None, table.rows)])),
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
    groups = [(value, level_rows(group)) for value, group in groups]
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
    # Each finite edge value in every number column, beside a plain value.
    edges, n = FINITE_EDGES, len(FINITE_EDGES)
    rows = [(i % 7, i % 5, edges[i], complex(edges[(i + 1) % n], edges[(i + 2) % n]),
             edges[(i + 3) % n], edges[(i + 4) % n]) for i in range(n)]
    rows += [(1, 2, x, complex(0.25, x), x, 0.5) for x in edges]
    rows = list(filter(has_finite_abs_err, rows))
    records = [reference_fields(row) for row in rows]
    table = LevelTable(level_rows(rows), [])
    assert level_table_csv(table) == reference_csv(LEVEL_COLUMNS, records)
    text = _json_object([("levels", _LevelWriter().to_json([(None, table.rows)]))])
    assert text == json.dumps({"levels": records}, indent=2) + "\n"
    # Every edge value, NaN and inf too, as a swept value.
    groups = [(x, rows[:2]) for x in EDGES]
    writer = _LevelWriter(SWEEP_COLUMNS, lead="theta")
    expected = reference_sweep_rows("theta", groups)
    groups = [(x, table.rows[:2]) for x in EDGES]
    assert writer.to_csv(groups) == reference_csv(("theta", *SWEEP_COLUMNS), expected)
    text = _json_object([("rows", writer.to_json(groups))])
    assert text == json.dumps({"rows": expected}, indent=2) + "\n"


def test_abs_err_keeps_the_bits_of_python_abs():
    # np.abs on this distance prints 0.0403690171498; the dict path printed
    # abs(complex), and so does the writer.
    table = LevelTable(level_rows([PYTHON_ABS_ROW]), [])
    assert level_table_csv(table).splitlines()[1].split(",")[5] == "0.0403690171499"
    (record,) = json.loads(_LevelWriter().to_json([(None, table.rows)]))
    assert json.dumps(record["abs_err"]) == "0.0403690171499"


@settings(max_examples=25, deadline=None)
@given(values=st.lists(NUMBERS, min_size=1, max_size=4))
@example(values=[0.0034999999999999996, 0.004999999999999999, -0.0, 5e-324, math.nan])
def test_sweep_json_lead_reads_back_as_csv(values):
    # A swept value from numpy.linspace, such as 0.0034999999999999996,
    # reads back from the JSON rows as from the CSV text, 0.0035.
    rows = level_rows([(0, 1, 2.0, complex(2.5, 0.0), 1e-15, 0.99)])
    groups = [(value, rows) for value in values]
    writer = _LevelWriter(SWEEP_COLUMNS, lead="tau")
    csv_leads = [line.split(",")[0] for line in writer.to_csv(groups).splitlines()[1:]]
    json_leads = [record["tau"] for record in json.loads(writer.to_json(groups))]
    assert json.dumps(json_leads) == json.dumps([float(text) for text in csv_leads])

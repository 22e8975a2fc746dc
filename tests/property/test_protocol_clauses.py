"""Property test for the service's trust boundary on the ``clauses`` field.

Whatever JSON a client sends as ``clauses``, :func:`build_job` must either
return a :class:`SolveJob` or raise :class:`ProtocolError` (a 400): any
other exception would surface as a 500 and count as a server failure.
The test only builds jobs and never solves them, so it stays cheap.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.jobs import SolveJob
from repro.service.protocol import BAD_REQUEST, JobDefaults, ProtocolError, build_job

json_scalars = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.none(),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=12,
)

clauses_fields = st.one_of(
    json_values,
    st.lists(st.lists(json_values, max_size=4), max_size=5),
    # Mostly well-formed clause lists, so valid jobs get built too.
    st.lists(
        st.lists(st.integers(min_value=-20, max_value=20), max_size=4), max_size=5
    ),
)


@given(clauses_fields)
@settings(max_examples=300, deadline=None)
def test_build_job_returns_a_job_or_raises_protocol_error(clauses):
    try:
        job = build_job({"op": "solve", "clauses": clauses}, JobDefaults())
    except ProtocolError as exc:
        assert exc.code == BAD_REQUEST
    else:
        assert isinstance(job, SolveJob)

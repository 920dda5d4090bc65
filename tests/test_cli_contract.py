"""Property tests of the CLI contract on random design configs.

Configs are built from each INI_KEYS map with values drawn from the edges
of the float range, ordinary values and non-numbers.  Every command must
exit 0, 2, 3 or 4, raise and warn nothing, print no non-finite number, and
print the same stdout when run again.  The order of the structure sections
must not change any structure's breakdown.
"""

import contextlib
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfloss import cli
from surfloss.config import load_config
from surfloss.geometry import (STRUCTURE_TYPES, DielectricStack,
                               ValidationError, assemble_design)

#: extremes of the float range, ordinary values and non-numbers
VALUES = ("0", "-1", "1e-300", "4e-309", "1e200", "1e308", "nan",
          "0.1", "2", "100", "abc", "")

#: a value for every key that, left alone, gives a valid design
BASE = {
    "eps_substrate": "11.7", "eps_ma": "9.8", "eps_ms": "9.8", "eps_sa": "3.8",
    "t_ma_nm": "2", "t_ms_nm": "2", "t_sa_nm": "2",
    "tan_ma": "0.005", "tan_ms": "0.005", "tan_sa": "0.005",
    "capacitance_ff": "100", "span_ghz": "2",
    "s_um": "5", "w_um": "100", "length_um": "1130",
    "a_um": "50", "b_um": "100", "c_um": "130", "t_um": "0.1",
    "single_ended": "false", "half_width_um": "0.1", "d_um": "50",
    "r0_um": "0.1", "slope": "0.4",
}

COMMANDS = (["analyze"], ["tls", "--sections", "10000"], ["taper"])

_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@st.composite
def configs(draw, min_structures=1):
    def section(header, keys, optional):
        lines = [header]
        for key in keys:
            if key in optional and draw(st.booleans()):
                continue
            # one key in eight takes a value from VALUES
            value = draw(st.sampled_from(VALUES)) \
                if draw(st.integers(0, 7)) == 7 else BASE[key]
            lines.append(f"{key} = {value}")
        return lines

    text = section("[stack]", DielectricStack.INI_KEYS, DielectricStack.INI_KEYS)
    if draw(st.booleans()):
        text += section("[targets]", ("capacitance_ff", "span_ghz"), ())
    types = draw(st.lists(st.sampled_from(sorted(STRUCTURE_TYPES)),
                          min_size=min_structures, max_size=2))
    for i, stype in enumerate(types):
        cls = STRUCTURE_TYPES[stype]
        # a field with a default is a class attribute of the dataclass
        optional = {k for k, name in cls.INI_KEYS.items() if hasattr(cls, name)}
        text += section(f"[structure.s{i}]\ntype = {stype}", cls.INI_KEYS,
                        optional)
    return "\n".join(text) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue(), caught


# Hypothesis formats a failing example with black, whose import of
# mypy_extensions warns; that must not hide the failure itself
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=100, derandomize=True, deadline=None)
@given(text=configs())
def test_cli_contract_holds_for_random_configs(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "design.ini"
    path.write_text(text)
    for cmd in COMMANDS:
        argv = [cmd[0], "--config", str(path), *cmd[1:]]
        rc, out, err, caught = _run(argv)
        assert rc in (0, 2, 3, 4), (argv, rc, err)
        assert not caught, [str(w.message) for w in caught]
        assert "Warning" not in err and "Traceback" not in err
        assert not _NON_FINITE.search(out), out
        assert _run(argv)[1] == out


def _breakdowns(cfg, structures):
    design = assemble_design(structures, cfg.stack,
                             target_capacitance=cfg.target_capacitance)
    return {bd.label: (bd.p_ma, bd.p_ms, bd.p_sa, bd.capacitance,
                       bd.loss_tangent) for bd in design.breakdowns}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(text=configs(min_structures=2))
def test_section_order_does_not_change_breakdowns(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "design.ini"
    path.write_text(text)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            cfg = load_config(path)
            forward = _breakdowns(cfg, cfg.structures)
        except (ValueError, ArithmeticError):
            return          # exits 2 or 3 whatever the order
        backward = _breakdowns(cfg, cfg.structures[::-1])
    assert list(forward) == [s.label for s in cfg.structures]
    assert sorted(backward) == sorted(forward)
    for label, values in forward.items():
        np.testing.assert_allclose(backward[label], values, rtol=1e-12,
                                   atol=0.0, err_msg=label)

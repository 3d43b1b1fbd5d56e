"""An empty background name is a name: it survives ``to_json``/``from_json``."""

from fractions import Fraction

from nahmpole.algebra import GForm
from nahmpole.geometry import FrameBackground, background_to_json, load_background
from nahmpole.scalars import RationalField
from nahmpole.series import PhgSeries, expand, from_json, to_json

_FIELD = RationalField()


def test_a_series_named_empty_round_trips():
    series = PhgSeries(field=_FIELD, order=3, background_name="")
    series._store(1, 0, [], b=GForm.one_form(_FIELD, [[Fraction(1, 3), 0, 0],
                                                      [0, 2, 0], [0, 0, -1]]))
    text = to_json(series)
    assert '"background": ""' in text
    back = from_json(text)
    assert back.background_name == ""
    assert to_json(back) == text


def test_a_file_background_named_empty_keeps_its_name(tmp_path):
    c = load_background("builtin:berger-s3?squash=2", _FIELD).c
    path = tmp_path / "unnamed.json"
    path.write_text(background_to_json(FrameBackground.from_structure_constants("", c)))
    bg = load_background(str(path), _FIELD)
    assert bg.name == ""
    text = to_json(expand(bg, N=4))
    back = from_json(text)
    assert back.background_name == ""
    assert to_json(back) == text

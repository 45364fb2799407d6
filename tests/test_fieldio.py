import numpy as np
import pytest

from shelab.fieldio import MAGIC, load_field, save_field
from shelab.noise import NoiseStream
from shelab.sim import GridSpec, evolve


def test_roundtrip(tmp_path):
    g = GridSpec(dx=0.1, half_width=2.0, dt=0.005)
    f = evolve(g, NoiseStream(5, 3), [0.1])[0]
    path = tmp_path / "snap.shefld"
    save_field(path, f, replicate_id=3)
    f2, rep = load_field(path)
    assert rep == 3
    assert f2.time == f.time
    assert f2.grid == g
    assert np.array_equal(f2.values, f.values)


def test_layout_is_little_endian_fixed_width(tmp_path):
    g = GridSpec(dx=0.5, half_width=1.0, dt=0.1)
    f = evolve(g, NoiseStream(1, 0), [0.1])[0]
    path = tmp_path / "snap.shefld"
    save_field(path, f, replicate_id=7)
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    assert len(raw) == 64 + 8 * g.cell_count
    assert np.frombuffer(raw[8:16], dtype="<f8")[0] == 0.5       # dx
    assert np.frombuffer(raw[48:56], dtype="<u8")[0] == 7        # replicate


def test_corruption_detected(tmp_path):
    g = GridSpec(dx=0.5, half_width=1.0, dt=0.1)
    f = evolve(g, NoiseStream(1, 0), [0.1])[0]
    path = tmp_path / "snap.shefld"
    save_field(path, f)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.shefld"
    bad.write_bytes(b"NOTMAGIC" + bytes(raw[8:]))
    with pytest.raises(ValueError):
        load_field(bad)
    trunc = tmp_path / "trunc.shefld"
    trunc.write_bytes(bytes(raw[:-8]))
    with pytest.raises(ValueError):
        load_field(trunc)
    short = tmp_path / "short.shefld"
    short.write_bytes(bytes(raw[:32]))
    with pytest.raises(ValueError):
        load_field(short)
    assert raw[32:40] == bytes(8)                 # the reserved word is 0
    periodic = tmp_path / "periodic.shefld"       # old boundary code 1
    periodic.write_bytes(bytes(raw[:32]) + (1).to_bytes(8, "little") + bytes(raw[40:]))
    with pytest.raises(ValueError, match="reserved"):
        load_field(periodic)

import rmoments


def test_every_exported_name_is_bound():
    names = rmoments.__all__
    assert len(set(names)) == len(names)
    star = {}
    exec("from rmoments import *", star)
    for name in names:
        assert hasattr(rmoments, name), name
        assert star[name] is getattr(rmoments, name), name
    assert set(star) - {"__builtins__"} == set(names)

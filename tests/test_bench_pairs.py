from bench_pairs import summarise


def _runs(parent, change, name="wall_ref"):
    """Alternating runs of one metric, the parent first in even pairs."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", p), ("change", c)][:: 1 if pair % 2 == 0 else -1]
        runs += [{"side": side, "pair": pair, "result": {"metrics": {name: {"value": v}}}}
                 for side, v in sides]
    return runs


def _row(parent, change, better="lower", bound=0.25):
    out = summarise(_runs(parent, change), len(parent), {"wall_ref": better}, {"wall_ref": bound})
    return out["wall_ref"]


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_a_change_inside_the_bound_is_within_it():
    row = _row(PARENT, [v * 1.2 for v in PARENT])
    assert (row["verdict"], row["bound"]) == ("within bound", 0.25)
    assert not row["nine_in_ten"]
    assert _row(PARENT, [v * 0.9 for v in PARENT])["verdict"] == "within bound"


def test_a_change_past_the_bound_is_worse_beyond_it():
    assert _row(PARENT, [v * 1.3 for v in PARENT])["verdict"] == "worse beyond bound"
    # "higher is better": a drop of more than the bound
    assert _row(PARENT, [v * 0.7 for v in PARENT], better="higher")["verdict"] == (
        "worse beyond bound")
    assert _row(PARENT, [v * 1.3 for v in PARENT], better="higher")["verdict"] == "within bound"


def test_a_parent_wider_than_the_bound_leaves_the_verdict_unresolved():
    wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.65, 1.35, 1.0, 0.75, 1.25]  # IQR 0.55 of median 1.0
    assert _row(wide, wide)["verdict"] == "unresolved"
    assert _row(wide, [v * 1.5 for v in wide])["verdict"] == "unresolved"
    # unless every change run beats every parent run
    assert _row(wide, [0.5] * 10)["verdict"] == "within bound"
    assert _row(wide, [2.0] * 10, better="higher")["verdict"] == "within bound"


def test_equal_runs_are_within_the_bound_and_tied():
    row = _row([36.87] * 10, [36.87] * 10, better="higher", bound=0.15)
    assert row["verdict"] == "within bound"
    assert (row["tied_pairs"], row["change_better_pairs"]) == (10, 0)


def test_metrics_without_a_bound_get_no_verdict():
    out = summarise(_runs(PARENT, PARENT), 10, {"wall_ref": "lower"}, {})
    assert "verdict" not in out["wall_ref"] and "nine_in_ten" not in out["wall_ref"]

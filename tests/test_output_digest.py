import importlib.util
import json
from pathlib import Path

from twoec.fixtures import g5

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_names_each_differing_output(tmp_path, capsys):
    base = {"G5": {"blocks": "a1", "components": "b2"}, "road": {"blocks": "c3"}}
    head = {"G5": {"blocks": "a1", "components": "ff"}, "road": {"blocks": "c3"}}
    paths = []
    for name, result in (("base", base), ("same", base), ("head", head)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(result, sort_keys=True))
    tool = _tool()
    assert tool.main(["--compare", str(paths[0]), str(paths[1])]) == 0
    assert capsys.readouterr().out == "all outputs equal\n"
    assert tool.main(["--compare", str(paths[0]), str(paths[2])]) == 1
    assert capsys.readouterr().out == "G5: components\n"


def test_outputs_of_a_small_graph():
    # every library function the tool calls still exists and runs: 14
    # catalog outputs, 2 partitions, 2 x 2 certificates, 2 tree pairs, 2
    # first-level and 2 second-level decompositions and 2 x 10 filter runs
    tool = _tool()
    outs = tool._outputs(g5())
    kinds = [key.split("/")[0] for key in outs]
    assert [kinds.count(k) for k in ("catalog", "ist_b", "ist_b_original", "independent_pair",
                                     "aux_graphs", "second_level", "filter_b", "filter_bc")] == [
        14, 2, 2, 2, 2, 2, 10, 10]
    assert len(outs) == 46
    assert outs["blocks"] == [0, 0, 1, 2, 3, 4] and outs["components"] == list(range(6))
    assert outs["catalog/ist-b"] == list(range(8))    # g5 has no edge to spare
    # certificates are digested as sorted edge sets
    assert outs["ist_b/0"][0] == outs["ist_b_original/0"] == list(range(8))
    assert outs["ist_b/0"][1]["n_prime"] == 2


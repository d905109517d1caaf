import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "markovlens"


def import_graph() -> dict:
    """module -> the package modules it imports anywhere in its source, function-local
    imports included; __init__ only re-exports and is left out."""
    modules = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    graph = {}
    for name, path in modules.items():
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets.update([node.module.split(".")[0]] if node.module
                               else [alias.name for alias in node.names])
        graph[name] = sorted(targets & modules.keys())
    return graph


def find_cycle(graph: dict) -> list | None:
    """One import cycle as a path that returns to its start, or None."""
    state = {}  # 1 while on the current path, 2 once every import below is done

    def visit(module, path):
        state[module] = 1
        for target in graph[module]:
            if state.get(target) == 1:
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target, path + [target])
                if cycle:
                    return cycle
        state[module] = 2
        return None

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return None


def test_find_cycle_reports_a_cycle_and_accepts_a_chain():
    assert find_cycle({"a": ["b"], "b": ["c"], "c": ["a"]}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": ["b", "c"], "b": ["c"], "c": []}) is None


def test_the_package_import_graph_has_no_cycle():
    graph = import_graph()
    assert {"divisibility", "dynamics", "witnesses"} <= graph.keys()
    assert "dynamics" in graph["divisibility"]  # the parser sees relative imports
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)

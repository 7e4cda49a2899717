"""Command line frontend.

Verbs: eval (measure a tree / arrangement / edge ordering against a graph),
solve (exact optima with witness files), reduce (solve one problem through
the other via auxiliary graphs), verify (invariant suites), gen (graph
families) and convert (between the object representations).

All machine output is a single JSON document on stdout; --pretty indents
it.  Every failure is a ReasmError: main() prints one `error:` line on
stderr and exits with the code of its class.  Exit codes: 0 success;
2 validation error, including a file that cannot be read or written;
3 resource limit exceeded: an exact solve above 2^REASM_DP_LIMIT states,
splits or orders, refused before anything is built (the alpha search
charges 2^5 states per set it stores and refuses the first set past the
limit), or an input above MAX_VERTICES vertices or MAX_EDGES edges,
refused before it is built;
4 verification failure: a failed verify suite, or an identity of the
paper that failed in any verb;
130 (128 + SIGINT) interrupted: Ctrl-C prints `error: interrupted`, and
leaves no worker process.  A reader that closes stdout early ends the run
with exit 0.

The process entry point is `reasm.__main__.main`, which imports this
module inside the one handler that turns a KeyboardInterrupt into exit
130; `main` here lets the interrupt through to its caller.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .errors import ReasmError, ValidationError, VerificationError
from .graph import Graph, format_graph, generate, parse_graph, vertices_of
from .layout import (Arrangement, evaluate_arrangement, format_witness,
                     induce_arrangement, induce_reassembling,
                     parse_arrangement)
from .reduction import A2R, R2A, reduce_alpha, reduce_beta
from .sequential import (block_tree, canonical_ordering, format_ordering,
                         parse_ordering, seq_reassemble)
from .solvers import (brute_force_arrangement, exact_arrangement,
                      exact_binary_reassembling, exact_linear_reassembling)
from .tree import ReassemblyTree, measures, parse_tree, print_tree
from .verify import SUITES, run_suites

DIRECTIONS = {"r2a": R2A, "a2r": A2R}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _check_writable(path: str) -> None:
    """Refuse, before any work is done, a path that `_write` could not
    write; nothing there is created or changed."""
    target = Path(path)
    if target.is_dir() or not target.parent.is_dir() or not os.access(
            target if target.exists() else target.parent, os.W_OK):
        raise ValidationError(f"cannot write {path}: not a writable file "
                              f"in an existing directory")


def _load_graph(path: str) -> Graph:
    return parse_graph(_read(path))


def _load_connected_graph(path: str) -> Graph:
    """A graph for the verbs that need it connected: a connected graph has
    m >= n - 1, so fewer edges are refused before any solver runs."""
    g = _load_graph(path)
    if g.n > g.m + 1:
        raise ValidationError(f"graph has {g.n} vertices but only {g.m} edges, "
                              f"so it is not connected")
    return g


def _emit(obj: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2))
    else:
        print(json.dumps(obj))


def _one_of(args: argparse.Namespace, names: tuple) -> str:
    given = [n for n in names if getattr(args, n) is not None]
    if len(given) != 1:
        wanted = ", ".join("--" + n for n in names)
        raise ValidationError(f"give exactly one of {wanted}")
    return given[0]


def _load_object(args: argparse.Namespace) -> tuple:
    """(kind, object) for the one of --tree, --arrangement and --ordering
    given.  The parsers are looked up per call, so a wrapper set on this
    module's names (perfbench's span recorder) sees each parse."""
    parsers = {"tree": parse_tree, "arrangement": parse_arrangement,
               "ordering": parse_ordering}
    kind = _one_of(args, tuple(parsers))
    return kind, parsers[kind](_read(getattr(args, kind)))


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    kind, obj = _load_object(args)
    if kind == "tree":
        out = measures(g, obj).to_json()
        out["linear"] = obj.is_linear()
    elif kind == "arrangement":
        out = evaluate_arrangement(g, obj).to_json()
    else:
        trace = seq_reassemble(g, obj)
        tree = trace.tree()
        rep = measures(g, tree)
        out = {
            "steps": [{"merged": [list(vertices_of(a)), list(vertices_of(b))],
                       "bridges": [list(e) for e in g.bridges(a, b)]}
                      for a, b in trace.steps],
            "tree": print_tree(tree),
            "measures": {"alpha": rep.alpha, "beta": rep.beta},
        }
    _emit(out, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# solve

def _pick_engine(mode: str, engine: str) -> str:
    if engine == "brute" and mode != "arrangement":
        raise ValidationError(f"mode {mode} has no brute engine; use the dp engine")
    return engine or "dp"


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_connected_graph(args.graph)
    engine = _pick_engine(args.mode, args.engine)
    if args.anchor is not None and args.mode == "binary":
        raise ValidationError("binary mode does not take an anchor")
    witness_path = args.witness_out
    if witness_path is None:
        witness_path = f"{Path(args.graph).stem}.{args.mode}.{args.objective}.witness"
    _check_writable(witness_path)
    if args.mode == "arrangement":
        solver = exact_arrangement if engine == "dp" else brute_force_arrangement
        res = solver(g, args.objective, anchor=args.anchor)
    elif args.mode == "linear":
        res = exact_linear_reassembling(g, args.objective, anchor=args.anchor)
    else:
        res = exact_binary_reassembling(g, args.objective)
    out = res.to_json()
    _write(witness_path, format_witness(res.witness) + "\n")
    out["witness_file"] = str(witness_path)
    out["engine"] = engine
    _emit(out, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# reduce

def cmd_reduce(args: argparse.Namespace) -> int:
    g = _load_connected_graph(args.graph)
    if args.problem == "beta":
        report = reduce_beta(g, DIRECTIONS[args.direction])
    else:
        report = reduce_alpha(g)
    _emit(report.to_json(), args.pretty)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suites(args.suite or None, seed=args.seed, trials=args.trials)
    ok = True
    for res in results:
        _emit(res.to_json(), args.pretty)
        ok = ok and res.ok
    return 0 if ok else VerificationError.exit_code


# ---------------------------------------------------------------------------
# gen

def _parse_ring_sizes(raw: str) -> tuple:
    try:
        sizes = tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ValidationError(f"ring sizes must be integers, got {raw!r}") from None
    if not sizes:
        raise ValidationError("empty ring size list")
    return sizes


def cmd_gen(args: argparse.Namespace) -> int:
    ring_sizes = _parse_ring_sizes(args.ring_sizes) if args.ring_sizes is not None else None
    g = generate(args.family, args.size, ring_sizes=ring_sizes,
                 path_len=args.path_len)
    text = format_graph(g)
    out = {"family": args.family, "n": g.n, "m": g.m}
    if args.out:
        _write(args.out, text)
        out["file"] = args.out
    else:
        out["text"] = text
    _emit(out, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# convert

def _convert(g: Graph, kind: str, obj, target: str):
    if kind == target:
        raise ValidationError(f"input is already a {target}")
    if kind == "arrangement":
        tree = induce_reassembling(g, obj)
    elif kind == "ordering":
        tree = block_tree(g, obj)
    else:
        tree = obj
    if target == "tree":
        return tree
    if target == "arrangement":
        return induce_arrangement(g, tree)
    return canonical_ordering(g, tree)


def cmd_convert(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    kind, obj = _load_object(args)
    result = _convert(g, kind, obj, args.to)
    if isinstance(result, (Arrangement, ReassemblyTree)):
        text = format_witness(result) + "\n"
    else:
        text = format_ordering(result)
    out = {"from": kind, "to": args.to, "text": text}
    if args.out:
        _write(args.out, text)
        out["file"] = args.out
    _emit(out, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_object_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tree", help="tree file, nested parentheses of vertices")
    p.add_argument("--arrangement", help="arrangement file, one line of vertices")
    p.add_argument("--ordering", help="edge ordering file, one 'u v' per line")


def _sub(sub, name: str, **kwargs) -> argparse.ArgumentParser:
    p = sub.add_parser(name, **kwargs)
    # accepted before or after the verb
    p.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS,
                   help=argparse.SUPPRESS)
    return p


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="reasm",
        description="Exact alpha/beta optimization of graph reassemblings "
                    "and linear arrangements.")
    top.add_argument("--pretty", action="store_true",
                     help="indent the JSON output")
    sub = top.add_subparsers(dest="verb", required=True)

    p = _sub(sub, "eval", help="measure a tree, arrangement or edge ordering")
    p.add_argument("--graph", required=True, help="graph file")
    _add_object_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = _sub(sub, "solve", help="compute an exact optimum with witness")
    p.add_argument("graph", help="graph file")
    p.add_argument("--objective", required=True, choices=("alpha", "beta"))
    p.add_argument("--mode", default="arrangement",
                   choices=("arrangement", "linear", "binary"))
    p.add_argument("--anchor", type=int, help="force this vertex first")
    p.add_argument("--engine", choices=("dp", "brute"),
                   help="dp (default) or brute reference (arrangement mode only)")
    p.add_argument("--witness-out", help="witness file path "
                   "(default <graph>.<mode>.<objective>.witness)")
    p.set_defaults(fn=cmd_solve)

    p = _sub(sub, "reduce", help="solve one problem through the other "
                       "via auxiliary graphs")
    p.add_argument("graph", help="graph file")
    p.add_argument("--problem", required=True, choices=("alpha", "beta"))
    p.add_argument("--direction", default="r2a", choices=sorted(DIRECTIONS),
                   help="beta only: which problem is reduced to which")
    p.set_defaults(fn=cmd_reduce)

    p = _sub(sub, "verify", help="run invariant suites")
    p.add_argument("--suite", action="append", choices=sorted(SUITES),
                   help="suite name, repeatable (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, help="override randomized trial counts")
    p.set_defaults(fn=cmd_verify)

    p = _sub(sub, "gen", help="write a graph from a named family")
    p.add_argument("--family", required=True,
                   choices=("complete", "star", "path", "cycle", "qcube3",
                            "ring_tree"))
    p.add_argument("--size", type=int, help="vertex count (star: leaf count)")
    p.add_argument("--ring-sizes", help="ring_tree only, e.g. '3,4'")
    p.add_argument("--path-len", type=int,
                   help="ring_tree only: spoke path length (default 1)")
    p.add_argument("--out", help="write the graph file here")
    p.set_defaults(fn=cmd_gen)

    p = _sub(sub, "convert", help="convert between tree, arrangement "
                       "and edge ordering")
    p.add_argument("--graph", required=True, help="graph file")
    _add_object_flags(p)
    p.add_argument("--to", required=True,
                   choices=("tree", "arrangement", "ordering"))
    p.add_argument("--out", help="also write the converted object here")
    p.set_defaults(fn=cmd_convert)
    return top


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use: parsing keeps no state
    in it between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except ReasmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # whoever reads stdout stopped reading; point fd 1 at the null
        # device so the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0

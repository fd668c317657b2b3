"""Command-line front end for topology inspection, traffic generation,
routing, plan validation, failure simulation, and the experiment sweeps.

Exit codes: 0 success, 1 validation or audit failure, 2 usage error
(an input file that cannot be read is one), 3 search resource limit exceeded.
Every command runs under one map from exception to exit code, `_Commands`.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .baselines import PairError
from .cdijkstra import DEFAULT_LIMITS, SearchLimits
from .experiments import (
    PATTERNS,
    SCHEMES,
    ExperimentReport,
    route_with_scheme,
    run_instance,
    table1,
    write_outputs,
)
from .experiments import traffic_spec as make_traffic_spec
from .failsim import AuditError, audit
from .graph import Graph, GraphError, distance_sum, dump_graph
from .plan import AllocationPlan, PlanError
from .router import RoutingError
from .topologies import TOPOLOGY_NAMES, load_topology
from .traffic import dump_demands, generate, load_demands


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Commands(click.Group):
    """The command group; it maps what a command raises to an exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except RoutingError as exc:
            _fail(str(exc), 3 if exc.resource_limit else 1)
        except (PairError, PlanError, AuditError) as exc:
            _fail(str(exc), 1)
        # ValueError covers TopologyError and GraphError; it comes after the
        # clause above, since PairError and PlanError are ValueErrors too
        except (ValueError, OSError) as exc:
            _fail(str(exc), 2)


def _load_plan(g: Graph, plan_file: str) -> AllocationPlan:
    """A plan that does not parse exits 1; a file that cannot be read, 2."""
    text = Path(plan_file).read_text()
    try:
        return AllocationPlan.parse(g, text)
    except (PlanError, GraphError) as exc:
        _fail(f"unparseable plan: {exc}", 1)


def _limits(max_partial_paths: int | None, max_work: int | None) -> SearchLimits:
    return SearchLimits(
        DEFAULT_LIMITS.max_stored if max_partial_paths is None else max_partial_paths,
        DEFAULT_LIMITS.max_work if max_work is None else max_work)


graph_option = click.option("--graph", required=True,
                            help=f"topology name ({', '.join(TOPOLOGY_NAMES)}) or graph file")
murakami_option = click.option("--murakami-file", default=None, type=click.Path(),
                               help="graph file backing the murakami_kim topology")
pattern_option = click.option("--pattern", type=click.Choice(PATTERNS), required=True)
seed_option = click.option("--seed", type=int, default=None,
                           help="64-bit shuffle seed (omit for base order)")
mode_option = click.option("--mode", type=click.Choice(["node", "link"]), default=None,
                           help="disjointness mode (default: per-scheme)")
max_paths_option = click.option(
    "--max-partial-paths", type=click.IntRange(min=1), default=None,
    help="stored-partial-path limit for the constrained search")
max_work_option = click.option(
    "--max-work", type=click.IntRange(min=1), default=None,
    help="probe-work limit for the constrained search and the working-route search")


@click.group(cls=_Commands)
@click.version_option(package_name="pxtmesh")
def main():
    """Shared mesh protection planning with pre-cross-connected trails."""


@main.command()
@graph_option
@murakami_option
@click.option("--out", type=click.Path(), default=None, help="write the graph file here")
def topo(graph, murakami_file, out):
    """Emit or inspect a topology."""
    name, g = load_topology(graph, murakami_file)
    text = dump_graph(g)
    if out:
        Path(out).write_text(text)
    click.echo(f"{name}: {len(g.nodes)} nodes, {g.num_links()} links, "
               f"distance sum {distance_sum(g)}")
    if not out:
        click.echo(text, nl=False)


@main.command("traffic")
@graph_option
@murakami_option
@pattern_option
@seed_option
@click.option("--large", default=None,
              help="comma-separated large nodes for unbalanced traffic")
@click.option("--out", type=click.Path(), default=None, help="write the demand file here")
def traffic_cmd(graph, murakami_file, pattern, seed, large, out):
    """Generate a demand list for a traffic pattern."""
    name, g = load_topology(graph, murakami_file)
    spec = make_traffic_spec(pattern, name, seed, tuple(large.split(",")) if large else None)
    demands = generate(g, spec)
    text = dump_demands(demands)
    if out:
        Path(out).write_text(text)
        click.echo(f"{len(demands)} demands written to {out}")
    else:
        click.echo(text, nl=False)


@main.command()
@graph_option
@murakami_option
@click.option("--pattern", type=click.Choice(PATTERNS), default=None)
@seed_option
@click.option("--demands", "demands_file", type=click.Path(exists=True), default=None,
              help="route demands from a file instead of a generated pattern")
@click.option("--scheme", type=click.Choice(SCHEMES), default="pxt")
@mode_option
@click.option("--large", default=None)
@click.option("--out", type=click.Path(), default=None, help="write the plan file here")
@click.option("--verbose", is_flag=True, help="per-demand routing decisions on stderr")
@max_paths_option
@max_work_option
def route(graph, murakami_file, pattern, seed, demands_file, scheme, mode, large,
          out, verbose, max_partial_paths, max_work):
    """Route one traffic instance into an allocation plan."""
    name, g = load_topology(graph, murakami_file)
    if (pattern is None) == (demands_file is None):
        _fail("give exactly one of --pattern or --demands", 2)
    if demands_file:
        demands = load_demands(g, Path(demands_file).read_text())
    else:
        spec = make_traffic_spec(pattern, name, seed,
                                 tuple(large.split(",")) if large else None)
        demands = generate(g, spec)
    log: list[str] | None = [] if verbose else None
    try:
        plan = route_with_scheme(g, scheme, demands, mode=mode,
                                 limits=_limits(max_partial_paths, max_work), log=log)
    finally:  # the log comes before the error line when routing fails
        if log:
            click.echo("\n".join(log), err=True)
    working, protection, total = plan.bandwidth()
    click.echo(f"{len(demands)} demands routed ({scheme}): working {working}, "
               f"protection {protection}, total {total}")
    if out:
        Path(out).write_text(plan.serialize())
        click.echo(f"plan written to {out}")
    else:
        click.echo(plan.serialize(), nl=False)


@main.command()
@graph_option
@murakami_option
@click.option("--plan", "plan_file", type=click.Path(exists=True), required=True)
def validate(graph, murakami_file, plan_file):
    """Check a plan file against the sharing rules."""
    plan = _load_plan(load_topology(graph, murakami_file)[1], plan_file)
    violations = plan.validate()
    if violations:
        for v in violations:
            click.echo(str(v))
        _fail(f"{len(violations)} violation(s)", 1)
    w, p, t = plan.bandwidth()
    # plan.pxts is kept only under rule d; a clean plan decomposes all the same
    click.echo(f"plan ok: {len(plan.entries)} demands, working {w}, "
               f"protection {p}, total {t}, {len(plan.extract_pxts())} trails, "
               f"branch points: none")


@main.command()
@graph_option
@murakami_option
@click.option("--plan", "plan_file", type=click.Path(exists=True), required=True)
@click.option("--mode", type=click.Choice(["node", "link"]), default=None,
              help="failure kinds to sweep (default: the plan's mode)")
@click.option("--csv", "csv_out", type=click.Path(), default=None)
def simulate(graph, murakami_file, plan_file, mode, csv_out):
    """Sweep single failures and audit restoration semantics."""
    plan = _load_plan(load_topology(graph, murakami_file)[1], plan_file)
    violations = plan.validate()
    if violations:
        _fail(f"plan invalid ({len(violations)} violation(s)); audit needs a "
              f"valid plan", 1)
    report = audit(plan, mode=mode)
    click.echo(report.summary())
    if csv_out:
        Path(csv_out).write_text(report.to_csv())
        click.echo(f"per-failure rows written to {csv_out}")


@main.command()
@graph_option
@murakami_option
@pattern_option
@click.option("--scheme", type=click.Choice(SCHEMES), default="pxt")
@mode_option
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--runs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--large", default=None)
@click.option("--out", type=click.Path(), default=None,
              help="directory for runs.csv")
@click.option("--measure-runtime", is_flag=True,
              help="record wall-clock runtime_ms (off: column is 0 for "
                   "reproducible output)")
@click.option("--verbose", is_flag=True)
@max_paths_option
@max_work_option
def run(graph, murakami_file, pattern, scheme, mode, seed, runs, large, out,
        measure_runtime, verbose, max_partial_paths, max_work):
    """Run one experiment instance over one or more seeds."""
    name, g = load_topology(graph, murakami_file)
    limits = _limits(max_partial_paths, max_work)
    large_nodes = tuple(large.split(",")) if large else None
    report = ExperimentReport([
        run_instance(name, g, pattern, scheme, s, mode=mode, limits=limits,
                     large=large_nodes, measure_runtime=measure_runtime)
        for s in range(seed, seed + runs)])
    if verbose:
        for row in report.rows:
            click.echo(row.csv_row(), err=True)
    click.echo(report.summary())
    if out:
        target = write_outputs(out, "runs.csv", report.to_csv())
        click.echo(f"rows written to {target}")
    else:
        click.echo(report.to_csv(), nl=False)


@main.command("table1")
@murakami_option
@click.option("--pattern", "patterns", type=click.Choice(PATTERNS), multiple=True,
              help="restrict to one or more patterns (default: all)")
@click.option("--runs", type=click.IntRange(min=1), default=10, show_default=True,
              help="seeds per order-dependent cell (Path, PXT medians)")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="directory for table1.txt and table1.csv")
@max_paths_option
@max_work_option
def table1_cmd(murakami_file, patterns, runs, seed, out, max_partial_paths, max_work):
    """Reproduce the full published bandwidth comparison."""
    report = table1(runs=runs, seed=seed, patterns=patterns or PATTERNS,
                    murakami_file=murakami_file,
                    limits=_limits(max_partial_paths, max_work))
    text = report.render()
    click.echo(text, nl=False)
    if out:
        write_outputs(out, "table1.txt", text)
        target = write_outputs(out, "table1.csv", report.to_csv())
        click.echo(f"table written to {Path(out) / 'table1.txt'} and {target}")
    if not report.all_rows_ok():
        _fail("some cells fell outside their reference bands", 1)


if __name__ == "__main__":
    main()

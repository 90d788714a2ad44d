"""The CuLi interpreter: arena + global environment + builtins + the
parse/eval/print execution flow (paper Fig. 5).

The interpreter is device-agnostic. All timing flows through the
:class:`~repro.context.ExecContext` it is handed, and parallel execution
(`|||`) is delegated to a pluggable *parallel engine* — sequential by
default, replaced by the device back-ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..context import ExecContext, NullContext
from ..errors import EvalError
from ..gpu.memory import OutputBuffer, SourceBuffer
from ..ops import Op, Phase
from .arena import NodeArena
from .builtins import BuiltinRegistry, install_all
from .environment import Environment
from .evaluator import Evaluator
from .nodes import Node, NodeType
from .printer import Printer
from .reader import Parser
from .symtab import SymbolTable

if False:  # pragma: no cover - typing-only import (avoid a runtime cycle)
    from ..runtime.parse_cache import ParseCache

__all__ = [
    "Interpreter",
    "InterpreterOptions",
    "CommandPlan",
    "PlanStep",
    "sequential_engine",
    "worker_expression",
]

#: engine(interp, fn_node, rows, env, ctx, depth, spread) -> list of
#: result nodes; ``spread`` is True for rows that name no worker
#: (``gpu-map``, ``preduce``), which a GPU places one per warp first.
ParallelEngine = Callable[..., list]


def sequential_engine(interp: "Interpreter", fn: Node, rows: list[list[Node]],
                      env: Environment, ctx: ExecContext, depth: int,
                      spread: bool = False) -> list[Node]:
    """Fallback ||| engine: evaluate each worker's job in a loop.

    Each job still gets its own environment chained to the ``|||``
    expression's environment, exactly like a real worker (paper: "The
    root of this subtree is linked to the environment of the
    |||-expression").
    """
    results = []
    for row in rows:
        local = env.child(label="worker")
        ctx.charge(Op.NODE_ALLOC)
        results.append(interp.apply_callable(fn, row, local, ctx, depth))
    return results


def worker_expression(interp: "Interpreter", fn: Node, row: list[Node],
                      master: ExecContext) -> Node:
    """The expression a device engine hands one worker, e.g. (+ 1 4) for
    (||| 3 + (1 2 3) ...): a fresh list linking the function and the
    job's argument nodes, built and charged by the master."""
    expr = interp.arena.alloc(NodeType.N_LIST, master)
    master.charge(Op.NODE_WRITE, 2)
    expr.append_child(interp.linkable(fn, master))
    for arg in row:
        master.charge(Op.NODE_WRITE, 2)
        expr.append_child(interp.linkable(arg, master))
    return expr.seal()


@dataclass
class InterpreterOptions:
    """Tunables; defaults follow the paper where it specifies behaviour.

    The three fast-path flags (all off by default — the literal paper
    behaviour) form the interning/indexing/parse-cache ablation described
    in DESIGN.md; :meth:`fast` turns them all on. Results are identical
    either way (property-tested); only the modeled op mix and the host
    wall time change.
    """

    arena_capacity: int = NodeArena.DEFAULT_CAPACITY
    atomic_arena_cursor: bool = False   #: ablation: shared-cursor allocation
    max_loop_iterations: int = 1_000_000
    intern_symbols: bool = False        #: fast path: id compares over strcmp chains
    indexed_roots: bool = False         #: fast path: hash index on root scopes
    parse_cache_capacity: int = 0       #: fast path: memoized parse trees (0 = off)
    #: Reclamation policy (DESIGN.md deviations #4/#7): "literal" = the
    #: uncharged between-command full mark-sweep, byte-identical to the
    #: paper-mode baseline; "generational" = per-request nursery regions
    #: + promotion write barriers, charged as modeled device time, with
    #: the full sweep (charged) kept as tenure-pressure fallback.
    gc_policy: str = "literal"
    #: Tenured-heap fraction of arena capacity that triggers a major
    #: collection after a minor one (generational policy only).
    gc_major_watermark: float = 0.75
    #: Test/ops hook: install the ``(inject-fault "kind")`` builtin so
    #: fault-isolation suites can raise device-level errors from inside
    #: a request deterministically. Off by default — the builtin table,
    #: and therefore the literal figures, are untouched unless asked.
    enable_fault_injection: bool = False
    #: JIT trace tier (DESIGN.md deviation #10): compile parse-cache-hot
    #: top-level forms to flat register traces and run them on the
    #: non-recursive trace executor, with guards that bail back to the
    #: tree-walker. Requires the parse cache (hotness is defined by it).
    jit: bool = False
    #: Entry use count (populating miss + hits) at which a cached text's
    #: forms are compiled. 3 means the third sighting runs traced.
    jit_threshold: int = 3

    GC_POLICIES = ("literal", "generational")

    def __post_init__(self) -> None:
        if self.gc_policy not in self.GC_POLICIES:
            raise ValueError(
                f"unknown gc_policy {self.gc_policy!r}; "
                f"expected one of {self.GC_POLICIES}"
            )

    @classmethod
    def fast(cls, **overrides) -> "InterpreterOptions":
        """The full fast path: interning + indexed roots + parse cache +
        generational region reclamation."""
        overrides.setdefault("intern_symbols", True)
        overrides.setdefault("indexed_roots", True)
        overrides.setdefault("parse_cache_capacity", 256)
        overrides.setdefault("gc_policy", "generational")
        return cls(**overrides)


class PlanStep:
    """One top-level form of a prepared command: either a materialized
    AST for the tree-walker, or a compiled trace (plus its template, so
    a guard bail can still materialize and tree-walk the form)."""

    __slots__ = ("form", "trace", "template")

    def __init__(self, form=None, trace=None, template=None) -> None:
        self.form = form
        self.trace = trace
        self.template = template

    @property
    def traced(self) -> bool:
        return self.trace is not None


class CommandPlan:
    """The executable plan for one REPL command (all its PlanSteps)."""

    __slots__ = ("steps",)

    def __init__(self, steps: list) -> None:
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)


class Interpreter:
    """One persistent CuLi instance (the environment survives commands —
    "the successively created environment on the GPU is persistent until
    the interpreter is terminated")."""

    def __init__(
        self,
        options: Optional[InterpreterOptions] = None,
        setup_ctx: Optional[ExecContext] = None,
    ) -> None:
        self.options = options or InterpreterOptions()
        self.arena = NodeArena(
            capacity=self.options.arena_capacity,
            atomic_cursor=self.options.atomic_arena_cursor,
        )
        self.symtab: Optional[SymbolTable] = (
            SymbolTable() if self.options.intern_symbols else None
        )
        self.arena.symtab = self.symtab
        self.parse_cache: Optional["ParseCache"] = None
        if self.options.parse_cache_capacity > 0:
            from ..runtime.parse_cache import ParseCache

            self.parse_cache = ParseCache(self.options.parse_cache_capacity)
        if self.options.jit and self.parse_cache is None:
            raise ValueError(
                "the jit trace tier requires the parse cache "
                "(set parse_cache_capacity > 0): hotness is defined by "
                "cache hit counts and traces live on cache entries"
            )
        from ..jit.trace import JitStats

        self.jit_stats = JitStats()
        self.registry: BuiltinRegistry = install_all(BuiltinRegistry())
        if self.options.enable_fault_injection:
            from .builtins import faults

            faults.register(self.registry)
        self.global_env = Environment(label="global")
        if self.options.indexed_roots:
            self.global_env.enable_index()
        if self.options.gc_policy == "generational":
            # Persistent scopes carry the promotion write barrier.
            self.global_env.gc_arena = self.arena
        self.evaluator = Evaluator(self)
        self.parallel_engine: ParallelEngine = sequential_engine
        # File I/O backend; devices replace this with the message-buffer
        # protocol link (repro.gpu.fileio.FileServiceLink).
        from ..gpu.fileio import InMemoryFileService

        self.file_service = InMemoryFileService()
        self._output_stack: list[OutputBuffer] = []
        # Extra GC roots: per-tenant session environments (repro.serve).
        # Their bindings must survive between-command collection exactly
        # like the global environment's do.
        self.extra_roots: list[Environment] = []
        ctx = setup_ctx if setup_ctx is not None else NullContext()
        self.nil = self.arena.new_nil(ctx)
        self.true = self.arena.new_true(ctx)
        # Never link the singletons into lists directly; copy-on-link.
        self.nil.linked = True
        self.true.linked = True
        self._install_globals(ctx)

    # -- setup ------------------------------------------------------------------

    def _install_globals(self, ctx: ExecContext) -> None:
        """Build the global environment (master thread's startup job:
        "The master thread ... sets up the global environment used by
        all worker threads")."""
        symtab = self.symtab
        for builtin in self.registry:
            node = self.arena.alloc(NodeType.N_FUNCTION, ctx)
            ctx.charge(Op.NODE_WRITE, 2)
            node.set_str(builtin.name).set_fn(builtin)
            if symtab is not None:
                node.sym_id = symtab.intern(builtin.name, ctx)
            node.seal()
            self.global_env.define(builtin.name, node, ctx, sym_id=node.sym_id)

    # -- tenant environments (multi-tenant serving) -------------------------------

    def create_session_env(self, label: str = "session") -> Environment:
        """A persistent per-tenant scope chained to the global environment.

        The environment is a *session root*: defun/defmacro/setq-created
        bindings stop there (tenant isolation), and it is registered as a
        GC root so those bindings survive between-command collection.
        """
        env = self.global_env.child(label=label)
        env.session_root = True
        if self.options.indexed_roots:
            env.enable_index()
        if self.options.gc_policy == "generational":
            env.gc_arena = self.arena
        self.register_root_env(env)
        return env

    def release_session_env(self, env: Environment) -> None:
        """Drop a tenant scope; its private bindings become garbage."""
        self.unregister_root_env(env)

    def register_root_env(self, env: Environment) -> None:
        """Keep ``env``'s bindings alive across garbage collections."""
        self.extra_roots.append(env)

    def unregister_root_env(self, env: Environment) -> None:
        """Drop a tenant environment; its private bindings become garbage."""
        try:
            self.extra_roots.remove(env)
        except ValueError:
            pass

    # -- node utilities ------------------------------------------------------------

    def copy_node(self, node: Node, ctx: ExecContext) -> Node:
        """Shallow copy: value fields and child pointers are copied, the
        child chain itself is shared (immutable)."""
        clone = self.arena.alloc(node.ntype, ctx)
        ctx.charge(Op.NODE_READ)
        ctx.charge(Op.NODE_WRITE, 3)
        return clone.copy_fields(node)

    def linkable(self, node: Node, ctx: ExecContext) -> Node:
        """A node safe to append to a list (copy-on-link)."""
        if node.linked:
            return self.copy_node(node, ctx)
        return node

    def truthy(self, node: Node, ctx: ExecContext) -> bool:
        """nil and the empty list are false; everything else is true."""
        ctx.charge(Op.BRANCH)
        if node.ntype == NodeType.N_NIL:
            return False
        if node.is_list_like and node.first is None:
            return False
        return True

    # -- evaluation entry points ------------------------------------------------------

    def eval_node(self, node: Node, env: Environment, ctx: ExecContext,
                  depth: int = 0) -> Node:
        return self.evaluator.eval(node, env, ctx, depth)

    def apply_callable(self, fn: Node, values: list[Node], env: Environment,
                       ctx: ExecContext, depth: int) -> Node:
        """Apply a function/form to already-evaluated values."""
        if fn.ntype == NodeType.N_FUNCTION:
            builtin = fn.fn
            assert builtin is not None
            builtin.check_arity(len(values))
            return builtin.call(self, env, ctx, values, depth)
        if fn.ntype == NodeType.N_FORM:
            return self.evaluator.apply_form_prevaluated(fn, values, env, ctx, depth)
        if fn.ntype == NodeType.N_MACRO:
            expansion = self.evaluator.expand_macro(fn, values, env, ctx, depth)
            return self.eval_node(expansion, env, ctx, depth)
        raise EvalError(f"cannot apply {fn.ntype.name}")

    # -- output plumbing (print/princ builtins) ------------------------------------------

    def push_output(self, out: OutputBuffer) -> None:
        self._output_stack.append(out)

    def pop_output(self) -> OutputBuffer:
        return self._output_stack.pop()

    def current_output(self, ctx: ExecContext) -> OutputBuffer:
        if not self._output_stack:
            scratch = OutputBuffer()
            scratch.bind(ctx)
            self._output_stack.append(scratch)
        return self._output_stack[-1]

    def printer_for(self, ctx: ExecContext) -> Printer:
        return Printer(ctx)

    # -- parsing, the parse cache and the JIT trace tier (DESIGN.md deviation #10) -----

    def prepare_command(self, source: str | SourceBuffer, ctx: ExecContext) -> CommandPlan:
        """Parse one command into an executable :class:`CommandPlan`.

        Without a parse cache this is exactly the paper's serial
        char-by-char scan. With one (fast path), a repeated source text
        skips the scan entirely: the memoized template tree is
        deep-copied into the arena as fresh nodes — modeled as node
        allocs/copies, which are far cheaper than a ``CHAR_LOAD`` +
        ``PARSE_STEP`` per character — so every request still evaluates
        a private tree (no structure is ever shared between requests).

        With the JIT on, a cache entry whose use count has crossed
        ``jit_threshold`` is compiled once (uncharged host work, like
        cache population) and its traceable forms become trace steps —
        which skip the charged per-node materialization entirely;
        untraceable forms in the same entry still materialize and
        tree-walk.
        """
        cache = self.parse_cache
        if cache is None:
            return CommandPlan([PlanStep(form=f) for f in Parser(self, ctx).parse(source)])
        text = source.text if isinstance(source, SourceBuffer) else source
        entry = cache.get_entry(text, ctx)
        if entry is None:
            forms, templates = Parser(self, ctx).read(source)
            cache.put(text, templates)
            return CommandPlan([PlanStep(form=f) for f in forms])
        options = self.options
        if options.jit and entry.uses >= options.jit_threshold and not entry.trace_failed:
            if entry.traces is None:
                from ..jit.compiler import compile_form

                traces = [compile_form(t, self) for t in entry.templates]
                if any(trace is not None for trace in traces):
                    entry.traces = traces
                    self.jit_stats.traces_compiled += sum(
                        1 for trace in traces if trace is not None
                    )
                else:
                    entry.trace_failed = True
            if entry.traces is not None:
                steps = []
                for template, trace in zip(entry.templates, entry.traces):
                    if trace is None:
                        steps.append(PlanStep(
                            form=cache.materialize_one(template, self.arena, ctx)
                        ))
                    else:
                        steps.append(PlanStep(trace=trace, template=template))
                return CommandPlan(steps)
        forms = cache.materialize(entry.templates, self.arena, ctx)
        return CommandPlan([PlanStep(form=f) for f in forms])

    def run_plan_step(self, step: PlanStep, env: Environment, ctx: ExecContext) -> Node:
        """Evaluate one plan step (EVAL phase): trace, or tree-walk.

        A :class:`~repro.jit.executor.TraceBail` (a stale guard caught at
        preflight, before any instruction ran) falls back transparently:
        the form's template is materialized — charged, now, in the
        current phase — and tree-walked.
        """
        if step.trace is None:
            return self.eval_node(step.form, env, ctx, 0)
        from ..jit.executor import TraceBail, execute_trace

        try:
            result = execute_trace(step.trace, self, env, ctx)
        except TraceBail:
            self.jit_stats.guard_bails += 1
            assert self.parse_cache is not None
            form = self.parse_cache.materialize_one(step.template, self.arena, ctx)
            return self.eval_node(form, env, ctx, 0)
        self.jit_stats.trace_hits += 1
        return result

    def run_plan(self, plan: CommandPlan, env: Environment, ctx: ExecContext) -> list[Node]:
        """Evaluate every step of a prepared command, in order (EVAL
        phase); returns their results."""
        results: list[Node] = []
        for step in plan.steps:
            # A 1-tuple added in place: an append() per step would be a
            # host call every served master-mode request repeats.
            results += (self.run_plan_step(step, env, ctx),)
        return results

    # -- the paper's execution flow (Fig. 5) ------------------------------------------

    def process(
        self,
        source: str | SourceBuffer,
        ctx: ExecContext,
        env: Optional[Environment] = None,
    ) -> str:
        """parse -> eval -> print one REPL command; returns the output.

        Phase charging follows the paper's kernel-time decomposition:
        everything inside the parser is PARSE, evaluation (including
        ``|||`` distribution and collection) is EVAL, and result
        formatting is PRINT.
        """
        # Explicit None check: an Environment with no bindings is falsy
        # (it has __len__) but is still a legitimate scope.
        env = env if env is not None else self.global_env
        out = OutputBuffer().bind(ctx)
        self.begin_command_region()

        ctx.set_phase(Phase.PARSE)
        plan = self.prepare_command(source, ctx)

        ctx.set_phase(Phase.EVAL)
        self.push_output(out)
        try:
            results = self.run_plan(plan, env, ctx)
        finally:
            self.pop_output()

        ctx.set_phase(Phase.PRINT)
        printer = Printer(ctx)
        for i, result in enumerate(results):
            if i:
                out.append(" ")
            printer.print_node(result, out, readable=True)
        ctx.set_phase(Phase.OTHER)
        return out.getvalue()

    def begin_command_region(self) -> None:
        """Open (or join) the per-request nursery region (generational
        policy only; a no-op otherwise). Devices call this once per
        command or batch transaction; :meth:`process` calls it too so
        direct interpreter use stays correct."""
        if self.options.gc_policy == "generational":
            self.arena.begin_region()

    def abort_command(self) -> None:
        """Clean up after a command or batch transaction died on a
        device-fatal error: reclaim the aborted work's partial trees and
        close the open nursery region. Leaving the region open would make
        the next command silently join the aborted transaction's region,
        accumulating its garbage until some later reset."""
        self.collect_garbage()

    @property
    def gc_stats(self):
        """Lifetime reclamation counters (:class:`~repro.core.arena.GCStats`)."""
        return self.arena.gc_stats

    def collect_garbage(self, ctx: Optional[ExecContext] = None) -> int:
        """Reclaim unreachable nodes under the configured GC policy.

        ``ctx``, when given, receives the modeled device cost of the
        collection (generational policy only; the literal policy always
        runs uncharged)."""
        from .gc import collect_garbage

        return collect_garbage(self, ctx)

    def collect_major(self, ctx: Optional[ExecContext] = None) -> int:
        """Force a full mark-sweep (the generational fallback collector),
        regardless of policy. Only safe between commands."""
        from .gc import collect_major

        freed = 0
        if self.arena.region_active:
            # Close the open nursery first so the sweep never frees
            # region bookkeeping out from under a later reset.
            freed, _ = self.arena.reset_region()
        return freed + collect_major(self, ctx)

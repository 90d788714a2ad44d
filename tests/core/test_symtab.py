"""SymbolTable interning semantics and charging."""

from repro.context import CountingContext, NullContext
from repro.core.interpreter import Interpreter, InterpreterOptions
from repro.core.symtab import SymbolTable
from repro.ops import Op


class TestSymbolTable:
    def test_intern_is_stable(self):
        tab = SymbolTable()
        ctx = NullContext()
        a = tab.intern("alpha", ctx)
        b = tab.intern("beta", ctx)
        assert a != b
        assert tab.intern("alpha", ctx) == a
        assert len(tab) == 2

    def test_roundtrip(self):
        tab = SymbolTable()
        ctx = NullContext()
        sym_id = tab.intern("gamma-value", ctx)
        assert tab.ids["gamma-value"] == sym_id
        assert "unknown" not in tab.ids
        assert "gamma-value" in tab
        assert "unknown" not in tab

    def test_intern_charges_one_probe(self):
        tab = SymbolTable()
        ctx = CountingContext()
        tab.intern("alpha", ctx)   # miss: probe + table write
        tab.intern("alpha", ctx)   # hit: probe only
        assert ctx.counts.count_of(Op.HASH_PROBE) == 2
        assert ctx.counts.count_of(Op.NODE_WRITE) == 1


class TestInterpreterInterning:
    def test_literal_mode_has_no_table(self):
        interp = Interpreter(options=InterpreterOptions())
        assert interp.symtab is None
        assert interp.arena.symtab is None

    def test_parser_interns_symbols(self):
        interp = Interpreter(options=InterpreterOptions(intern_symbols=True))
        ctx = NullContext()
        form = interp.prepare_command("(alpha beta alpha)", ctx).steps[0].form
        kids = list(form.children())
        assert kids[0].sym_id >= 0
        assert kids[0].sym_id == kids[2].sym_id
        assert kids[0].sym_id != kids[1].sym_id

    def test_builtins_are_interned(self):
        interp = Interpreter(options=InterpreterOptions(intern_symbols=True))
        assert interp.symtab is not None
        assert "defun" in interp.symtab
        assert "+" in interp.symtab
        plus = interp.global_env.lookup("+", NullContext())
        assert plus is not None and plus.sym_id == interp.symtab.ids["+"]

    def test_literal_nodes_stay_uninterned(self):
        interp = Interpreter(options=InterpreterOptions())
        ctx = NullContext()
        form = interp.prepare_command("(alpha beta)", ctx).steps[0].form
        assert all(kid.sym_id == -1 for kid in form.children())

    def test_copy_node_preserves_sym_id(self):
        interp = Interpreter(options=InterpreterOptions(intern_symbols=True))
        ctx = NullContext()
        sym = interp.arena.new_symbol("alpha", ctx)
        clone = interp.copy_node(sym, ctx)
        assert clone.sym_id == sym.sym_id >= 0

"""The expression parser as a tree and a recursive evaluator: a test oracle.

``funcfield`` writes an expression as a postfix program and runs it in one
stack loop.  This is the earlier design, kept to check that loop: the same
grammar and tokenizer, a descent that builds a binary tree, and an evaluator
that recurses over it, with each entry point checking its names itself.  Its
recursion limits the chains and nesting it can read, so it is only run on
short drawn expressions.

The one deliberate difference from the earlier library code: its
``parse_curve_function`` raised ``InputError`` on an unknown variable, and
this oracle raises ``ParseError``, the subclass every other entry point
raises, with the same text.
"""

from maninmaps import CurveFunction, RatX, XPoly
from maninmaps.errors import ParseError
from maninmaps.funcfield import _tokenize


class _TreeParser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[1]), tok[2])
        return tok

    def parse(self):
        ast = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % tok[1], tok[2])
        return ast

    def expr(self):
        if self.peek()[0] == "-":
            self.next()
            node = ("neg", self.term())
        else:
            node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        node = self.base()
        if self.peek()[0] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "int":
                raise ParseError("exponent must be an integer", tok[2])
            node = ("pow", node, tok[1])
            if self.peek()[0] == "^":
                raise ParseError("repeated exponent", self.peek()[2])
        return node

    def base(self):
        tok = self.next()
        if tok[0] == "int":
            return ("int", tok[1])
        if tok[0] == "var":
            return ("name", tok[1])
        if tok[0] == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError("unexpected token %r" % (tok[1],), tok[2])


def parse_tree(text):
    return _TreeParser(text).parse()


def tree_names(ast):
    kind = ast[0]
    if kind == "int":
        return set()
    if kind == "name":
        return {ast[1]}
    if kind in ("neg", "pow"):
        return tree_names(ast[1])
    return tree_names(ast[1]) | tree_names(ast[2])


def eval_tree(ast, atoms, from_int):
    kind = ast[0]
    if kind == "int":
        return from_int(ast[1])
    if kind == "name":
        return atoms[ast[1]]
    if kind == "neg":
        return -eval_tree(ast[1], atoms, from_int)
    if kind == "pow":
        return eval_tree(ast[1], atoms, from_int) ** ast[2]
    lhs = eval_tree(ast[1], atoms, from_int)
    rhs = eval_tree(ast[2], atoms, from_int)
    if kind == "add":
        return lhs + rhs
    if kind == "sub":
        return lhs - rhs
    if kind == "mul":
        return lhs * rhs
    try:
        return lhs / rhs
    except ZeroDivisionError:
        raise ParseError("division by zero in expression")


def _check_names(ast, allowed):
    extra = tree_names(ast) - allowed
    if extra:
        raise ParseError("unknown variable %r" % sorted(extra)[0])


def parse_element(text, field):
    ast = parse_tree(text)
    _check_names(ast, {field.var})
    return eval_tree(ast, {field.var: field.gen}, field.from_int)


def parse(text, field):
    ast = parse_tree(text)
    _check_names(ast, {field.var, "x"})
    if "x" not in tree_names(ast):
        return eval_tree(ast, {field.var: field.gen}, field.from_int)
    atoms = {field.var: RatX.const(field.gen), "x": RatX.from_xpoly(XPoly.x(field))}
    return eval_tree(ast, atoms, lambda n: RatX.const(field.from_int(n))).as_xpoly()


def parse_curve_function(text, model):
    ast = parse_tree(text)
    field = model.field
    _check_names(ast, {field.var, "x", "y"})
    atoms = {
        field.var: CurveFunction.const(model, field.gen),
        "x": CurveFunction.x_coord(model),
        "y": CurveFunction.y_coord(model),
    }
    return eval_tree(ast, atoms, lambda n: CurveFunction.const(model, field.from_int(n)))

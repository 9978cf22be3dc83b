// Package parser builds LPC syntax trees from source text.
//
// The grammar is C-flavoured with Go operator precedence:
//
//	1 (loosest): ||
//	2:           &&
//	3:           == != < <= > >=
//	4:           + - | ^
//	5 (tightest):* / % << >> &
//
// Unary operators: - ! * (deref) & (address-of).
//
// The parser collects every syntax error it can attribute independently:
// a fault inside a statement resynchronizes to the next statement boundary
// (the following ';' or the enclosing '}'), and a fault inside a
// declaration resynchronizes to the next top-level 'func', 'var', or
// 'const', so one bad statement no longer hides the rest of the file.
// Parse returns a diag.List of positioned diagnostics in source order.
package parser

import (
	"strconv"

	"loopapalooza/internal/diag"
	"loopapalooza/internal/lang/ast"
	"loopapalooza/internal/lang/lexer"
	"loopapalooza/internal/lang/token"
)

// maxNestingDepth bounds expression and statement nesting so adversarial
// inputs (e.g. one megabyte of '(') cannot overflow the host stack through
// the recursive-descent parser, the checker, or codegen.
const maxNestingDepth = 200

// Parse parses one LPC compilation unit named name. On failure it returns
// a diag.List with every independently attributable error, sorted by
// position; the partial syntax tree is discarded.
func Parse(name, src string) (f *ast.File, err error) {
	p := &parser{lex: lexer.New(src), name: name, consts: map[string]int64{}}
	p.next()
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(bailout); !ok {
					panic(r)
				}
				// Too many errors: the file-level loop stopped early.
			}
		}()
		f = p.parseFile(name)
	}()
	for _, d := range p.lex.Errors() {
		d.File = name
		p.diags = append(p.diags, d)
	}
	if err := p.diags.Truncate(name).Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// bailout unwinds the parser to the nearest recovery point (statement,
// declaration, or — when the error budget is exhausted — Parse itself).
type bailout struct{}

type parser struct {
	lex    *lexer.Lexer
	name   string
	tok    token.Token
	nread  int              // tokens consumed; used to guarantee resync progress
	consts map[string]int64 // module-level integer constants
	diags  diag.List
	depth  int // combined statement/expression nesting depth
}

func (p *parser) next() {
	p.nread++
	for {
		p.tok = p.lex.Next()
		// Skip ILLEGAL tokens: the lexer already diagnosed them, and
		// letting them reach the grammar would only cascade
		// "expected X, found ILLEGAL" noise.
		if p.tok.Kind != token.ILLEGAL {
			return
		}
	}
}

// errorf records a positioned diagnostic and unwinds to the nearest
// recovery point.
func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.diags) < diag.MaxDiagnostics {
		p.diags = append(p.diags, diag.New(p.name, pos, format, args...))
	}
	panic(bailout{})
}

// enter guards recursion depth; pair it with a deferred leave. A returned
// closure would cost an allocation on every nested parse.
func (p *parser) enter() {
	p.depth++
	if p.depth > maxNestingDepth {
		p.errorf(p.tok.Pos, "program nesting too deep (more than %d levels)", maxNestingDepth)
	}
}

// leave undoes enter.
func (p *parser) leave() { p.depth-- }

func (p *parser) expect(k token.Kind) token.Token {
	if p.tok.Kind != k {
		p.errorf(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	t := p.tok
	p.next()
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// atEOF reports whether the parser ran off the end of the input. The error
// budget doubles as a hard stop: once exhausted, recovery points must not
// keep parsing.
func (p *parser) exhausted() bool {
	return p.tok.Kind == token.EOF || len(p.diags) >= diag.MaxDiagnostics
}

// syncTopLevel skips tokens until the start of a plausible next top-level
// declaration ('func', 'var', 'const') or end of input. It always consumes
// at least one token when not at EOF, so file-level recovery cannot loop.
func (p *parser) syncTopLevel(nreadAtError int) {
	for {
		switch p.tok.Kind {
		case token.EOF:
			return
		case token.KwFunc, token.KwVar, token.KwConst:
			if p.nread > nreadAtError {
				return
			}
		}
		p.next()
	}
}

// syncStmt skips to the next statement boundary: past the next ';', or to
// (not past) the enclosing '}' / a token that can start a statement. It
// always makes progress relative to nreadAtError.
func (p *parser) syncStmt(nreadAtError int) {
	for {
		switch p.tok.Kind {
		case token.EOF, token.RBRACE:
			return
		case token.SEMI:
			p.next()
			return
		case token.KwIf, token.KwWhile, token.KwFor, token.KwReturn,
			token.KwBreak, token.KwContinue, token.KwVar, token.LBRACE:
			if p.nread > nreadAtError {
				return
			}
		}
		p.next()
	}
}

func (p *parser) parseFile(name string) *ast.File {
	f := &ast.File{Name: name}
	for !p.exhausted() {
		mark := p.nread
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(bailout); !ok {
						panic(r)
					}
					p.syncTopLevel(mark)
				}
			}()
			switch p.tok.Kind {
			case token.KwConst:
				f.Consts = append(f.Consts, p.parseConstDecl())
			case token.KwVar:
				d := p.parseVarDecl()
				d.Global = true
				f.Globals = append(f.Globals, d)
			case token.KwFunc:
				f.Funcs = append(f.Funcs, p.parseFuncDecl())
			default:
				p.errorf(p.tok.Pos, "expected declaration, found %s", p.tok)
			}
		}()
	}
	return f
}

// parseConstDecl parses: const NAME = const-expr ;
func (p *parser) parseConstDecl() *ast.ConstDecl {
	pos := p.tok.Pos
	p.expect(token.KwConst)
	name := p.expect(token.IDENT).Lit
	p.expect(token.ASSIGN)
	v := p.constExpr()
	p.expect(token.SEMI)
	if _, dup := p.consts[name]; dup {
		p.errorf(pos, "constant %s redeclared", name)
	}
	p.consts[name] = v
	return &ast.ConstDecl{P: pos, Name: name, Value: v}
}

// constExpr parses and folds an integer constant expression.
func (p *parser) constExpr() int64 {
	e := p.parseExpr()
	v, ok := p.evalConst(e)
	if !ok {
		p.errorf(e.Pos(), "expression is not an integer constant")
	}
	return v
}

func (p *parser) evalConst(e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.Ident:
		v, ok := p.consts[x.Name]
		return v, ok
	case *ast.Unary:
		v, ok := p.evalConst(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case token.SUB:
			return -v, true
		}
		return 0, false
	case *ast.Binary:
		l, ok1 := p.evalConst(x.L)
		r, ok2 := p.evalConst(x.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case token.ADD:
			return l + r, true
		case token.SUB:
			return l - r, true
		case token.MUL:
			return l * r, true
		case token.QUO:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case token.REM:
			if r == 0 {
				return 0, false
			}
			return l % r, true
		case token.SHL:
			return l << uint(r&63), true
		case token.SHR:
			return l >> uint(r&63), true
		case token.AND:
			return l & r, true
		case token.OR:
			return l | r, true
		case token.XOR:
			return l ^ r, true
		}
	}
	return 0, false
}

// parseVarDecl parses: var NAME type ( = expr )? ;
func (p *parser) parseVarDecl() *ast.VarDecl {
	pos := p.tok.Pos
	p.expect(token.KwVar)
	name := p.expect(token.IDENT).Lit
	ty := p.parseType()
	d := &ast.VarDecl{P: pos, Name: name, DeclTy: ty}
	if p.accept(token.ASSIGN) {
		d.Init = p.parseExpr()
	}
	p.expect(token.SEMI)
	return d
}

// maxArrayLen bounds declared array lengths: a single declaration may not
// outsize the interpreter's whole default heap, so pathological sources
// fail with a positioned diagnostic instead of an allocation blow-up.
const maxArrayLen = 1 << 26

func (p *parser) parseType() ast.Type {
	switch p.tok.Kind {
	case token.KwInt:
		p.next()
		return ast.IntType
	case token.KwFloat:
		p.next()
		return ast.FloatType
	case token.KwBool:
		p.next()
		return ast.BoolType
	case token.MUL:
		p.next()
		elem := p.parseElemKind()
		return ast.PtrType(elem)
	case token.LBRACK:
		pos := p.tok.Pos
		p.next()
		n := p.constExpr()
		p.expect(token.RBRACK)
		elem := p.parseElemKind()
		if n <= 0 {
			p.errorf(pos, "array length must be positive, got %d", n)
		}
		if n > maxArrayLen {
			p.errorf(pos, "array length %d exceeds the maximum %d", n, int64(maxArrayLen))
		}
		return ast.ArrayType(n, elem)
	}
	p.errorf(p.tok.Pos, "expected type, found %s", p.tok)
	return ast.VoidType
}

func (p *parser) parseElemKind() ast.TypeKind {
	switch p.tok.Kind {
	case token.KwInt:
		p.next()
		return ast.TInt
	case token.KwFloat:
		p.next()
		return ast.TFloat
	}
	p.errorf(p.tok.Pos, "pointer/array element must be int or float, found %s", p.tok)
	return ast.TInt
}

func (p *parser) parseFuncDecl() *ast.FuncDecl {
	pos := p.tok.Pos
	p.expect(token.KwFunc)
	name := p.expect(token.IDENT).Lit
	p.expect(token.LPAREN)
	var params []*ast.ParamDecl
	for p.tok.Kind != token.RPAREN {
		if p.tok.Kind == token.EOF {
			p.errorf(p.tok.Pos, "unexpected end of input in parameter list of %s", name)
		}
		if len(params) > 0 {
			p.expect(token.COMMA)
		}
		ppos := p.tok.Pos
		pname := p.expect(token.IDENT).Lit
		pty := p.parseType()
		if pty.Kind == ast.TArray {
			p.errorf(ppos, "array parameters are not supported; pass a pointer")
		}
		params = append(params, &ast.ParamDecl{P: ppos, Name: pname, DeclTy: pty})
	}
	p.expect(token.RPAREN)
	ret := ast.VoidType
	if p.tok.Kind != token.LBRACE {
		ret = p.parseType()
		if ret.Kind == ast.TArray {
			p.errorf(pos, "functions cannot return arrays")
		}
	}
	body := p.parseBlock()
	return &ast.FuncDecl{P: pos, Name: name, Params: params, Ret: ret, Body: body}
}

func (p *parser) parseBlock() *ast.Block {
	p.enter()
	defer p.leave()
	pos := p.expect(token.LBRACE).Pos
	b := &ast.Block{P: pos}
	for p.tok.Kind != token.RBRACE {
		if p.exhausted() {
			p.errorf(p.tok.Pos, "unexpected end of input: missing }")
		}
		mark := p.nread
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(bailout); !ok {
						panic(r)
					}
					p.syncStmt(mark)
				}
			}()
			b.Stmts = append(b.Stmts, p.parseStmt())
		}()
	}
	p.expect(token.RBRACE)
	return b
}

func (p *parser) parseStmt() ast.Stmt {
	p.enter()
	defer p.leave()
	switch p.tok.Kind {
	case token.KwVar:
		return p.parseVarDecl()
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		pos := p.tok.Pos
		p.next()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		body := p.parseBlock()
		return &ast.While{P: pos, Cond: cond, Body: body}
	case token.KwFor:
		return p.parseFor()
	case token.KwBreak:
		pos := p.tok.Pos
		p.next()
		p.expect(token.SEMI)
		return &ast.Break{P: pos}
	case token.KwContinue:
		pos := p.tok.Pos
		p.next()
		p.expect(token.SEMI)
		return &ast.Continue{P: pos}
	case token.KwReturn:
		pos := p.tok.Pos
		p.next()
		var x ast.Expr
		if p.tok.Kind != token.SEMI {
			x = p.parseExpr()
		}
		p.expect(token.SEMI)
		return &ast.Return{P: pos, X: x}
	case token.LBRACE:
		return p.parseBlock()
	default:
		s := p.parseSimpleStmt()
		p.expect(token.SEMI)
		return s
	}
}

func (p *parser) parseIf() ast.Stmt {
	pos := p.tok.Pos
	p.expect(token.KwIf)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseBlock()
	var els ast.Stmt
	if p.accept(token.KwElse) {
		if p.tok.Kind == token.KwIf {
			els = p.parseIf()
		} else {
			els = p.parseBlock()
		}
	}
	return &ast.If{P: pos, Cond: cond, Then: then, Else: els}
}

func (p *parser) parseFor() ast.Stmt {
	pos := p.tok.Pos
	p.expect(token.KwFor)
	p.expect(token.LPAREN)
	var init ast.Stmt
	if p.tok.Kind != token.SEMI {
		if p.tok.Kind == token.KwVar {
			init = p.parseVarDecl() // consumes its own semicolon
		} else {
			init = p.parseSimpleStmt()
			p.expect(token.SEMI)
		}
	} else {
		p.expect(token.SEMI)
	}
	var cond ast.Expr
	if p.tok.Kind != token.SEMI {
		cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	var post ast.Stmt
	if p.tok.Kind != token.RPAREN {
		post = p.parseSimpleStmt()
	}
	p.expect(token.RPAREN)
	body := p.parseBlock()
	return &ast.For{P: pos, Init: init, Cond: cond, Post: post, Body: body}
}

// parseSimpleStmt parses an assignment or expression statement (no
// terminating semicolon).
func (p *parser) parseSimpleStmt() ast.Stmt {
	pos := p.tok.Pos
	lhs := p.parseExpr()
	if p.accept(token.ASSIGN) {
		rhs := p.parseExpr()
		return &ast.Assign{P: pos, LHS: lhs, RHS: rhs}
	}
	return &ast.ExprStmt{P: pos, X: lhs}
}

// ---- Expressions ----

func binaryPrec(k token.Kind) int {
	switch k {
	case token.LOR:
		return 1
	case token.LAND:
		return 2
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return 3
	case token.ADD, token.SUB, token.OR, token.XOR:
		return 4
	case token.MUL, token.QUO, token.REM, token.SHL, token.SHR, token.AND:
		return 5
	}
	return 0
}

func (p *parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	for {
		prec := binaryPrec(p.tok.Kind)
		if prec < minPrec {
			return lhs
		}
		op := p.tok.Kind
		pos := p.tok.Pos
		p.next()
		rhs := p.parseBinary(prec + 1)
		b := &ast.Binary{Op: op, L: lhs, R: rhs}
		b.P = pos
		lhs = b
	}
}

func (p *parser) parseUnary() ast.Expr {
	p.enter()
	defer p.leave()
	switch p.tok.Kind {
	case token.SUB, token.NOT, token.MUL, token.AND:
		op := p.tok.Kind
		pos := p.tok.Pos
		p.next()
		x := p.parseUnary()
		u := &ast.Unary{Op: op, X: x}
		u.P = pos
		return u
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.tok.Kind {
		case token.LBRACK:
			pos := p.tok.Pos
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBRACK)
			ix := &ast.Index{X: x, Idx: idx}
			ix.P = pos
			x = ix
		case token.LPAREN:
			id, ok := x.(*ast.Ident)
			if !ok {
				p.errorf(p.tok.Pos, "call target must be a function name")
			}
			pos := p.tok.Pos
			p.next()
			var args []ast.Expr
			for p.tok.Kind != token.RPAREN {
				if p.tok.Kind == token.EOF {
					p.errorf(p.tok.Pos, "unexpected end of input in argument list")
				}
				if len(args) > 0 {
					p.expect(token.COMMA)
				}
				args = append(args, p.parseExpr())
			}
			p.expect(token.RPAREN)
			c := &ast.Call{Name: id.Name, Args: args}
			c.P = pos
			x = c
		default:
			return x
		}
	}
}

func (p *parser) parsePrimary() ast.Expr {
	p.enter()
	defer p.leave()
	tok := p.tok
	switch tok.Kind {
	case token.INT:
		p.next()
		v, err := strconv.ParseInt(tok.Lit, 0, 64)
		if err != nil {
			p.errorf(tok.Pos, "bad integer literal %q: %v", tok.Lit, err)
		}
		e := &ast.IntLit{Value: v}
		e.P = tok.Pos
		return e
	case token.FLOAT:
		p.next()
		v, err := strconv.ParseFloat(tok.Lit, 64)
		if err != nil {
			p.errorf(tok.Pos, "bad float literal %q: %v", tok.Lit, err)
		}
		e := &ast.FloatLit{Value: v}
		e.P = tok.Pos
		return e
	case token.KwTrue, token.KwFalse:
		p.next()
		e := &ast.BoolLit{Value: tok.Kind == token.KwTrue}
		e.P = tok.Pos
		return e
	case token.IDENT:
		p.next()
		e := &ast.Ident{Name: tok.Lit}
		e.P = tok.Pos
		return e
	case token.KwInt, token.KwFloat:
		// Conversion: int(x) / float(x).
		p.next()
		p.expect(token.LPAREN)
		arg := p.parseExpr()
		p.expect(token.RPAREN)
		name := "int"
		if tok.Kind == token.KwFloat {
			name = "float"
		}
		c := &ast.Call{Name: name, Args: []ast.Expr{arg}, Conv: true}
		c.P = tok.Pos
		return c
	case token.LPAREN:
		p.next()
		e := p.parseExpr()
		p.expect(token.RPAREN)
		return e
	}
	p.errorf(tok.Pos, "expected expression, found %s", tok)
	return nil
}

package expr

import (
	"errors"
	"fmt"
)

// Parse compiles src into an expression tree. The grammar, lowest to
// highest precedence:
//
//	expr    = or
//	or      = and { ("or" | "||") and }
//	and     = unary { ("and" | "&&") unary }
//	unary   = ("not" | "!") unary | cmp
//	cmp     = add [ ("="|"=="|"!="|"<>"|"<"|"<="|">"|">=") add ]
//	add     = mul { ("+"|"-") mul }
//	mul     = neg { ("*"|"/"|"%") neg }
//	neg     = "-" neg | primary
//	primary = NUMBER | STRING | "true" | "false"
//	        | IDENT [ "(" [ expr { "," expr } ] ")" ]
//	        | "(" expr ")"
//
// An empty or all-whitespace src parses to the constant true, which
// matches the routing-table convention that an absent precondition means
// "always fireable".
//
// Nesting is bounded, so a guard from outside the process (a pushed
// routing table) cannot run the parser, or Eval and String after it, out
// of stack: the tree may be at most MaxDepth high, and at most twice
// that many parentheses, unary operators and calls may be open at any
// token — what String writes for a tree MaxDepth high ("not (not …)").
// A src that nests deeper is refused with a SyntaxError wrapping
// ErrTooDeep.
func Parse(src string) (Node, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.cur.kind == tokEOF {
		return &litNode{v: Bool(true)}, nil
	}
	n, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.cur.kind != tokEOF {
		return nil, p.errorf("unexpected %s after expression", p.cur)
	}
	return n, nil
}

// MaxDepth is how deeply an expression may nest (Parse). The deepest
// guard a shipped chart compiles to — examples/, internal/workload and
// its random charts up to six scopes deep, whose nested scopes conjoin
// their guards — is 8 levels high; the bound is over ten times that.
const MaxDepth = 100

// ErrTooDeep is what a SyntaxError wraps when an expression nests past
// MaxDepth.
var ErrTooDeep = errors.New("expression nested too deeply")

type parser struct {
	lex   *lexer
	cur   token
	depth int // parentheses, unary operators and calls open at cur
	h     int // the height of the node the last parse function returned
}

// nest opens one level of nesting at cur; the caller closes it.
func (p *parser) nest() error {
	if p.depth++; p.depth > 2*MaxDepth {
		return p.tooDeep()
	}
	return nil
}

// grow records the height of a node over children at most h high.
func (p *parser) grow(h int) error {
	if p.h = h + 1; p.h > MaxDepth {
		return p.tooDeep()
	}
	return nil
}

func (p *parser) tooDeep() error {
	return &SyntaxError{Src: p.lex.src, Pos: p.cur.pos, Msg: fmt.Sprintf("nested deeper than %d", MaxDepth), err: ErrTooDeep}
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Src: p.lex.src, Pos: p.cur.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseOr() (Node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokOr {
		lh := p.h
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err == nil {
			err = p.grow(max(lh, p.h))
		}
		if err != nil {
			return nil, err
		}
		l = &binNode{op: opOr, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokAnd {
		lh := p.h
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err == nil {
			err = p.grow(max(lh, p.h))
		}
		if err != nil {
			return nil, err
		}
		l = &binNode{op: opAnd, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Node, error) {
	if p.cur.kind == tokNot {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err == nil {
			err = p.grow(p.h)
		}
		if err != nil {
			return nil, err
		}
		return &notNode{x: x}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Node, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	var op binOp
	switch p.cur.kind {
	case tokEq:
		op = opEq
	case tokNeq:
		op = opNeq
	case tokLt:
		op = opLt
	case tokLte:
		op = opLte
	case tokGt:
		op = opGt
	case tokGte:
		op = opGte
	default:
		return l, nil
	}
	lh := p.h
	if err := p.advance(); err != nil {
		return nil, err
	}
	r, err := p.parseAdd()
	if err == nil {
		err = p.grow(max(lh, p.h))
	}
	if err != nil {
		return nil, err
	}
	return &binNode{op: op, l: l, r: r}, nil
}

func (p *parser) parseAdd() (Node, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokPlus || p.cur.kind == tokMinus {
		op := opAdd
		if p.cur.kind == tokMinus {
			op = opSub
		}
		lh := p.h
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
		if err == nil {
			err = p.grow(max(lh, p.h))
		}
		if err != nil {
			return nil, err
		}
		l = &binNode{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Node, error) {
	l, err := p.parseNeg()
	if err != nil {
		return nil, err
	}
	for {
		var op binOp
		switch p.cur.kind {
		case tokStar:
			op = opMul
		case tokSlash:
			op = opDiv
		case tokPercent:
			op = opMod
		default:
			return l, nil
		}
		lh := p.h
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseNeg()
		if err == nil {
			err = p.grow(max(lh, p.h))
		}
		if err != nil {
			return nil, err
		}
		l = &binNode{op: op, l: l, r: r}
	}
}

func (p *parser) parseNeg() (Node, error) {
	if p.cur.kind == tokMinus {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseNeg()
		if err != nil {
			return nil, err
		}
		// Fold negation of literal numbers so String() round-trips.
		if lit, ok := x.(*litNode); ok && lit.v.Kind() == KindNumber {
			return &litNode{v: Number(-lit.v.n)}, nil
		}
		return &negNode{x: x}, p.grow(p.h)
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	p.h = 1 // a leaf; a parenthesized expression and a call set their own
	switch p.cur.kind {
	case tokNumber:
		n := &litNode{v: Number(p.cur.num)}
		return n, p.advance()
	case tokString:
		n := &litNode{v: StringVal(p.cur.text)}
		return n, p.advance()
	case tokTrue:
		return &litNode{v: Bool(true)}, p.advance()
	case tokFalse:
		return &litNode{v: Bool(false)}, p.advance()
	case tokLParen:
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.cur.kind != tokRParen {
			return nil, p.errorf("expected ')', found %s", p.cur)
		}
		return inner, p.advance()
	case tokIdent:
		name := p.cur.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind != tokLParen {
			return &varNode{name: name}, nil
		}
		// Function call.
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		if err := p.advance(); err != nil {
			return nil, err
		}
		var args []Node
		h := 0 // the highest argument's height
		if p.cur.kind != tokRParen {
			for {
				a, err := p.parseOr()
				if err != nil {
					return nil, err
				}
				h = max(h, p.h)
				args = append(args, a)
				if p.cur.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if p.cur.kind != tokRParen {
			return nil, p.errorf("expected ')' closing call to %s, found %s", name, p.cur)
		}
		if err := p.grow(h); err != nil {
			return nil, err
		}
		return &callNode{name: name, args: args}, p.advance()
	default:
		return nil, p.errorf("expected expression, found %s", p.cur)
	}
}

package expr

import "fmt"

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

type parser struct {
	lex *lexer
	cur token
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
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
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
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: opAnd, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Node, error) {
	if p.cur.kind == tokNot {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
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
	if err := p.advance(); err != nil {
		return nil, err
	}
	r, err := p.parseAdd()
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
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
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
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseNeg()
		if err != nil {
			return nil, err
		}
		l = &binNode{op: op, l: l, r: r}
	}
}

func (p *parser) parseNeg() (Node, error) {
	if p.cur.kind == tokMinus {
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
		return &negNode{x: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
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
		if err := p.advance(); err != nil {
			return nil, err
		}
		var args []Node
		if p.cur.kind != tokRParen {
			for {
				a, err := p.parseOr()
				if err != nil {
					return nil, err
				}
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
		return &callNode{name: name, args: args}, p.advance()
	default:
		return nil, p.errorf("expected expression, found %s", p.cur)
	}
}

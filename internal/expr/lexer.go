package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// SyntaxError describes a lexical or grammatical error in an expression
// source string, with the byte offset at which it was detected.
type SyntaxError struct {
	Src string // the full source text
	Pos int    // byte offset of the error
	Msg string // human-readable description
	err error  // the sentinel it wraps (ErrTooDeep), or nil
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("expr: syntax error at offset %d in %q: %s", e.Pos, e.Src, e.Msg)
}

func (e *SyntaxError) Unwrap() error { return e.err }

// lexer scans an expression source string into tokens.
type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Src: l.src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// next returns the next token, or an error on invalid input.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber()
	case c == '\'' || c == '"':
		return l.lexString(c)
	case isIdentStart(rune(c)) || c >= utf8.RuneSelf:
		return l.lexIdent()
	}
	l.pos++
	switch c {
	case '(':
		return token{kind: tokLParen, pos: start}, nil
	case ')':
		return token{kind: tokRParen, pos: start}, nil
	case ',':
		return token{kind: tokComma, pos: start}, nil
	case '+':
		return token{kind: tokPlus, pos: start}, nil
	case '-':
		return token{kind: tokMinus, pos: start}, nil
	case '*':
		return token{kind: tokStar, pos: start}, nil
	case '/':
		return token{kind: tokSlash, pos: start}, nil
	case '%':
		return token{kind: tokPercent, pos: start}, nil
	case '=':
		if l.peekByte() == '=' {
			l.pos++
		}
		return token{kind: tokEq, pos: start}, nil
	case '!':
		if l.peekByte() == '=' {
			l.pos++
			return token{kind: tokNeq, pos: start}, nil
		}
		return token{kind: tokNot, pos: start}, nil
	case '<':
		switch l.peekByte() {
		case '=':
			l.pos++
			return token{kind: tokLte, pos: start}, nil
		case '>':
			l.pos++
			return token{kind: tokNeq, pos: start}, nil
		}
		return token{kind: tokLt, pos: start}, nil
	case '>':
		if l.peekByte() == '=' {
			l.pos++
			return token{kind: tokGte, pos: start}, nil
		}
		return token{kind: tokGt, pos: start}, nil
	case '&':
		if l.peekByte() == '&' {
			l.pos++
			return token{kind: tokAnd, pos: start}, nil
		}
		return token{}, l.errorf(start, "unexpected character %q (did you mean '&&'?)", c)
	case '|':
		if l.peekByte() == '|' {
			l.pos++
			return token{kind: tokOr, pos: start}, nil
		}
		return token{}, l.errorf(start, "unexpected character %q (did you mean '||'?)", c)
	}
	return token{}, l.errorf(start, "unexpected character %q", c)
}

func (l *lexer) peekByte() byte {
	if l.pos < len(l.src) {
		return l.src[l.pos]
	}
	return 0
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		break
	}
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	n, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, l.errorf(start, "malformed number %q", text)
	}
	return token{kind: tokNumber, text: text, num: n, pos: start}, nil
}

func (l *lexer) lexString(quote byte) (token, error) {
	start := l.pos
	l.pos++ // consume opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return token{kind: tokString, text: sb.String(), pos: start}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return token{}, l.errorf(start, "unterminated string")
			}
			esc := l.src[l.pos]
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '\'', '"':
				sb.WriteByte(esc)
			default:
				return token{}, l.errorf(l.pos, "unknown escape \\%c", esc)
			}
			l.pos++
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errorf(start, "unterminated string")
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if isIdentPart(r) || r == '.' {
			l.pos += size
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	if strings.HasSuffix(text, ".") || strings.Contains(text, "..") {
		return token{}, l.errorf(start, "malformed dotted name %q", text)
	}
	switch text {
	case "and", "AND":
		return token{kind: tokAnd, pos: start}, nil
	case "or", "OR":
		return token{kind: tokOr, pos: start}, nil
	case "not", "NOT":
		return token{kind: tokNot, pos: start}, nil
	case "true":
		return token{kind: tokTrue, pos: start}, nil
	case "false":
		return token{kind: tokFalse, pos: start}, nil
	}
	return token{kind: tokIdent, text: text, pos: start}, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

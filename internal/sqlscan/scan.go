// Package sqlscan tokenizes the TriggerMan command language (§2 of the
// paper): keyword-delimited, SQL-like commands such as create trigger,
// define data source, drop trigger, and the mini-SQL used in execSQL
// actions.
package sqlscan

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies a lexical token.
type TokenKind uint8

const (
	// EOF marks the end of input.
	EOF TokenKind = iota
	// Ident is an identifier or keyword (keyword-ness is decided by the
	// parser; the language is keyword-delimited but not reserved).
	Ident
	// Number is an integer or float literal.
	Number
	// String is a single-quoted string literal with '' escapes, already
	// unescaped in Text.
	String
	// Symbol is an operator or punctuation token: = <> != < <= > >= ( )
	// , . + - * / : ;
	Symbol
	// Param is a :NEW or :OLD parameter prefix token (the colon form).
	Param
)

// String names the token kind.
func (k TokenKind) String() string {
	switch k {
	case EOF:
		return "end of input"
	case Ident:
		return "identifier"
	case Number:
		return "number"
	case String:
		return "string"
	case Symbol:
		return "symbol"
	case Param:
		return "parameter"
	default:
		return "?"
	}
}

// Token is one lexical token with its source position (byte offset).
type Token struct {
	Kind TokenKind
	// Text is the token's content: identifier text as written, the
	// unescaped string body, the number literal, or the symbol itself.
	Text string
	// Pos is the byte offset of the token's first character.
	Pos int
	// IsFloat is set for Number tokens containing '.' or an exponent.
	IsFloat bool
}

// Is reports whether the token is an identifier matching word
// case-insensitively.
func (t Token) Is(word string) bool {
	return t.Kind == Ident && strings.EqualFold(t.Text, word)
}

// IsSymbol reports whether the token is the given symbol.
func (t Token) IsSymbol(sym string) bool {
	return t.Kind == Symbol && t.Text == sym
}

// Scanner tokenizes an input string.
type Scanner struct {
	src string
	pos int
}

// New returns a scanner over src.
func New(src string) *Scanner { return &Scanner{src: src} }

// Error is a lexical error with position information.
type Error struct {
	Pos int
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("syntax error at offset %d: %s", e.Pos, e.Msg) }

// Next returns the next token.
func (s *Scanner) Next() (Token, error) {
	s.skipSpace()
	if s.pos >= len(s.src) {
		return Token{Kind: EOF, Pos: s.pos}, nil
	}
	start := s.pos
	c := s.src[s.pos]
	switch {
	case isIdentStart(c):
		return s.scanIdent(start), nil
	case c >= '0' && c <= '9':
		return s.scanNumber(start)
	case c == '\'':
		return s.scanString(start)
	case c == ':':
		// :NEW / :OLD / :name parameter; bare ':' is a symbol.
		s.pos++
		if s.pos < len(s.src) && isIdentStart(s.src[s.pos]) {
			tok := s.scanIdent(s.pos)
			return Token{Kind: Param, Text: tok.Text, Pos: start}, nil
		}
		return Token{Kind: Symbol, Text: ":", Pos: start}, nil
	case c == '.':
		// .5 is a float; bare '.' is a symbol.
		if s.pos+1 < len(s.src) && s.src[s.pos+1] >= '0' && s.src[s.pos+1] <= '9' {
			return s.scanNumber(start)
		}
		s.pos++
		return Token{Kind: Symbol, Text: ".", Pos: start}, nil
	default:
		return s.scanSymbol(start)
	}
}

// All tokenizes the whole input. The slice is sized from the input: a
// token and its separator average more than four bytes, so for the
// usual text it is allocated once.
func (s *Scanner) All() ([]Token, error) {
	out := make([]Token, 0, (len(s.src)-s.pos)/4+2)
	for {
		t, err := s.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

func (s *Scanner) skipSpace() {
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			s.pos++
		case c == '-' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '-':
			// -- line comment
			for s.pos < len(s.src) && s.src[s.pos] != '\n' {
				s.pos++
			}
		case c == '/' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '*':
			// /* block comment */ (unterminated comment consumes rest)
			s.pos += 2
			for s.pos+1 < len(s.src) && !(s.src[s.pos] == '*' && s.src[s.pos+1] == '/') {
				s.pos++
			}
			if s.pos+1 < len(s.src) {
				s.pos += 2
			} else {
				s.pos = len(s.src)
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (s *Scanner) scanIdent(start int) Token {
	for s.pos < len(s.src) && isIdentCont(s.src[s.pos]) {
		s.pos++
	}
	return Token{Kind: Ident, Text: s.src[start:s.pos], Pos: start}
}

func (s *Scanner) scanNumber(start int) (Token, error) {
	isFloat := false
	for s.pos < len(s.src) && s.src[s.pos] >= '0' && s.src[s.pos] <= '9' {
		s.pos++
	}
	if s.pos < len(s.src) && s.src[s.pos] == '.' {
		// Don't absorb ".." or ".col"; only digits after the dot.
		if s.pos+1 < len(s.src) && s.src[s.pos+1] >= '0' && s.src[s.pos+1] <= '9' {
			isFloat = true
			s.pos++
			for s.pos < len(s.src) && s.src[s.pos] >= '0' && s.src[s.pos] <= '9' {
				s.pos++
			}
		} else if s.pos == start {
			// Leading-dot float like .5 — already guaranteed a digit.
			isFloat = true
			s.pos++
		}
	}
	if s.pos < len(s.src) && (s.src[s.pos] == 'e' || s.src[s.pos] == 'E') {
		mark := s.pos
		s.pos++
		if s.pos < len(s.src) && (s.src[s.pos] == '+' || s.src[s.pos] == '-') {
			s.pos++
		}
		if s.pos < len(s.src) && s.src[s.pos] >= '0' && s.src[s.pos] <= '9' {
			isFloat = true
			for s.pos < len(s.src) && s.src[s.pos] >= '0' && s.src[s.pos] <= '9' {
				s.pos++
			}
		} else {
			s.pos = mark // 'e' begins an identifier, not an exponent
		}
	}
	text := s.src[start:s.pos]
	if s.pos < len(s.src) && isIdentStart(s.src[s.pos]) {
		return Token{}, &Error{Pos: s.pos, Msg: fmt.Sprintf("malformed number %q", text+string(s.src[s.pos]))}
	}
	return Token{Kind: Number, Text: text, Pos: start, IsFloat: isFloat}, nil
}

func (s *Scanner) scanString(start int) (Token, error) {
	s.pos++ // opening quote
	var b strings.Builder
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		if c == '\'' {
			if s.pos+1 < len(s.src) && s.src[s.pos+1] == '\'' {
				b.WriteByte('\'')
				s.pos += 2
				continue
			}
			s.pos++
			return Token{Kind: String, Text: b.String(), Pos: start}, nil
		}
		b.WriteByte(c)
		s.pos++
	}
	return Token{}, &Error{Pos: start, Msg: "unterminated string literal"}
}

var twoCharSymbols = map[string]bool{
	"<>": true, "!=": true, "<=": true, ">=": true, "==": true,
}

func (s *Scanner) scanSymbol(start int) (Token, error) {
	c := s.src[s.pos]
	if s.pos+1 < len(s.src) {
		two := s.src[s.pos : s.pos+2]
		if twoCharSymbols[two] {
			s.pos += 2
			// Normalize aliases.
			switch two {
			case "!=":
				two = "<>"
			case "==":
				two = "="
			}
			return Token{Kind: Symbol, Text: two, Pos: start}, nil
		}
	}
	switch c {
	case '=', '<', '>', '(', ')', ',', '+', '-', '*', '/', ';':
		s.pos++
		return Token{Kind: Symbol, Text: string(c), Pos: start}, nil
	}
	if unicode.IsPrint(rune(c)) {
		return Token{}, &Error{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c)}
	}
	return Token{}, &Error{Pos: start, Msg: fmt.Sprintf("unexpected byte 0x%02x", c)}
}

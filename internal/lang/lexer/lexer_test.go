package lexer

import (
	"strings"
	"testing"

	"loopapalooza/internal/lang/token"
)

func kinds(src string) []token.Kind {
	l := New(src)
	var out []token.Kind
	for _, t := range l.All() {
		out = append(out, t.Kind)
	}
	return out
}

func TestOperators(t *testing.T) {
	got := kinds("+ - * / % & | ^ << >> && || ! == != < <= > >= = ( ) [ ] { } , ;")
	want := []token.Kind{
		token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.AND, token.OR, token.XOR, token.SHL, token.SHR,
		token.LAND, token.LOR, token.NOT,
		token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
		token.ASSIGN,
		token.LPAREN, token.RPAREN, token.LBRACK, token.RBRACK,
		token.LBRACE, token.RBRACE, token.COMMA, token.SEMI, token.EOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestKeywordsAndIdents(t *testing.T) {
	l := New("func main xy_1 while true")
	toks := l.All()
	if toks[0].Kind != token.KwFunc {
		t.Errorf("func -> %s", toks[0])
	}
	if toks[1].Kind != token.IDENT || toks[1].Lit != "main" {
		t.Errorf("main -> %s", toks[1])
	}
	if toks[2].Kind != token.IDENT || toks[2].Lit != "xy_1" {
		t.Errorf("xy_1 -> %s", toks[2])
	}
	if toks[3].Kind != token.KwWhile || toks[4].Kind != token.KwTrue {
		t.Errorf("keywords wrong: %v", toks)
	}
}

func TestNumbers(t *testing.T) {
	l := New("0 42 0x1F 3.25 1e9 2.5e-3 7e")
	toks := l.All()
	wantKind := []token.Kind{token.INT, token.INT, token.INT, token.FLOAT, token.FLOAT, token.FLOAT, token.INT}
	wantLit := []string{"0", "42", "0x1F", "3.25", "1e9", "2.5e-3", "7"}
	for i := range wantKind {
		if toks[i].Kind != wantKind[i] || toks[i].Lit != wantLit[i] {
			t.Errorf("token %d = %s, want %s(%s)", i, toks[i], wantKind[i], wantLit[i])
		}
	}
	// "7e" should leave "e" as an identifier.
	if toks[7].Kind != token.IDENT || toks[7].Lit != "e" {
		t.Errorf("trailing token = %s, want IDENT(e)", toks[7])
	}
}

func TestComments(t *testing.T) {
	l := New("a // line comment\nb /* block\ncomment */ c")
	toks := l.All()
	if len(toks) != 4 { // a b c EOF
		t.Fatalf("tokens = %v", toks)
	}
	if toks[2].Lit != "c" || toks[2].Pos.Line != 3 {
		t.Errorf("c at %v", toks[2].Pos)
	}
}

func TestUnterminatedComment(t *testing.T) {
	l := New("a /* never closed")
	l.All()
	if len(l.Errors()) == 0 {
		t.Error("expected unterminated-comment error")
	}
}

func TestPositions(t *testing.T) {
	l := New("ab\n  cd")
	toks := l.All()
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("ab at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("cd at %v", toks[1].Pos)
	}
}

func TestIllegalChar(t *testing.T) {
	l := New("a $ b")
	toks := l.All()
	found := false
	for _, tk := range toks {
		if tk.Kind == token.ILLEGAL {
			found = true
		}
	}
	if !found || len(l.Errors()) == 0 {
		t.Error("expected ILLEGAL token and error for $")
	}
}

// TestEOFEdgeCases scans inputs that end mid-construct. Every case must
// terminate (All() returns), produce the expected positioned diagnostic,
// and never fabricate a bogus non-ILLEGAL token for the broken construct.
func TestEOFEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantMsg string // substring of the first diagnostic ("" = no error)
		wantPos string // "line:col" of the first diagnostic
	}{
		{"unterminated block comment", "a /* never closed", "unterminated block comment", "1:3"},
		{"block comment ends at star", "/* closed almost *", "unterminated block comment", "1:1"},
		{"unterminated string", `x = "abc`, "unterminated string literal", "1:5"},
		{"string closed by newline", "\"abc\ndef", "unterminated string literal", "1:1"},
		{"closed string still rejected", `"abc"`, "string literals are not supported", "1:1"},
		{"escaped quote then EOF", `"ab\"`, "unterminated string literal", "1:1"},
		{"unterminated char", "'a", "unterminated character literal", "1:1"},
		{"closed char rejected", "'a'", "character literals are not supported", "1:1"},
		{"hex prefix only", "0x", "hex literal has no digits", "1:1"},
		{"hex prefix then op", "0x+1", "hex literal has no digits", "1:1"},
		{"stray byte at EOF", "a@", `unexpected character '@'`, "1:2"},
		{"stray utf8 rune", "π", "unexpected character 'π'", "1:1"},
		{"nul byte", "a\x00b", `unexpected character '\x00'`, "1:2"},
		{"line comment at EOF", "a // trailing", "", ""},
		{"lone slash at EOF", "a /", "", ""},
		{"exponent rewind at EOF", "7e", "", ""},
		{"dot without digits", "1.", "", ""}, // "1" INT, then "." is a stray byte
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := New(tc.src)
			toks := l.All() // must terminate
			if toks[len(toks)-1].Kind != token.EOF {
				t.Fatal("All() did not end with EOF")
			}
			errs := l.Errors()
			if tc.wantMsg == "" {
				if tc.name == "dot without digits" {
					return // "." is a stray byte; only termination matters here
				}
				if len(errs) != 0 {
					t.Fatalf("unexpected diagnostics: %v", errs)
				}
				return
			}
			if len(errs) == 0 {
				t.Fatalf("no diagnostic, want %q", tc.wantMsg)
			}
			if got := errs[0].Msg; !strings.Contains(got, tc.wantMsg) {
				t.Errorf("diagnostic = %q, want substring %q", got, tc.wantMsg)
			}
			if got := errs[0].Pos.String(); got != tc.wantPos {
				t.Errorf("position = %s, want %s", got, tc.wantPos)
			}
		})
	}
}

// TestEOFForever: after end of input, Next keeps returning EOF (a parser
// that over-reads can never hang or read garbage).
func TestEOFForever(t *testing.T) {
	l := New("x")
	l.Next()
	for i := 0; i < 10; i++ {
		if tk := l.Next(); tk.Kind != token.EOF {
			t.Fatalf("Next() after EOF = %s", tk)
		}
	}
}

// TestErrorCap: a pathological input stops collecting diagnostics at the
// cap instead of building an unbounded error list.
func TestErrorCap(t *testing.T) {
	src := ""
	for i := 0; i < 1000; i++ {
		src += "$ "
	}
	l := New(src)
	l.All()
	if n := len(l.Errors()); n > 64 {
		t.Errorf("diagnostics = %d, want capped", n)
	}
}

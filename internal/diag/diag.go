// Package diag defines the positioned diagnostics shared by every stage of
// the LPC front end: lexical, syntax, and type errors carry a file, line,
// and column; multiple diagnostics collect into one error value; and the
// renderer produces the canonical "file:line:col: message" form with a
// caret-marked source snippet.
//
// The package also defines ICE, the recovered internal-compiler-error: a
// panic anywhere in the lexer/parser/sema/codegen pipeline is converted
// into an *ICE carrying the panic value, the goroutine stack, and the
// source text as a reproducer, so no input can crash the compile surface.
package diag

import (
	"fmt"
	"sort"
	"strings"

	"loopapalooza/internal/lang/token"
)

// Severity classifies a diagnostic.
type Severity uint8

// Severities.
const (
	SevError Severity = iota
	SevWarning
)

// String returns the canonical severity label.
func (s Severity) String() string {
	if s == SevWarning {
		return "warning"
	}
	return "error"
}

// Diagnostic is one positioned message.
type Diagnostic struct {
	// File names the compilation unit.
	File string
	// Pos is the 1-based source position (zero when unknown).
	Pos token.Pos
	// Sev is the severity (SevError unless stated otherwise).
	Sev Severity
	// Msg is the message text, without position or severity prefix.
	Msg string
}

// New returns an error-severity diagnostic.
func New(file string, pos token.Pos, format string, args ...any) *Diagnostic {
	return &Diagnostic{File: file, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Error renders the canonical one-line form "file:line:col: message".
// Diagnostics without a position render as "file: message".
func (d *Diagnostic) Error() string {
	if d.Pos.Line == 0 {
		return fmt.Sprintf("%s: %s", d.File, d.Msg)
	}
	return fmt.Sprintf("%s:%d:%d: %s", d.File, d.Pos.Line, d.Pos.Col, d.Msg)
}

// List is an ordered collection of diagnostics. It implements error; a
// non-empty List is returned by each front-end stage in source order.
type List []*Diagnostic

// Error joins the canonical one-line forms with newlines.
func (l List) Error() string {
	msgs := make([]string, len(l))
	for i, d := range l {
		msgs[i] = d.Error()
	}
	return strings.Join(msgs, "\n")
}

// Sort orders the list by (file, line, col), keeping the insertion order of
// diagnostics at the same position (stable).
func (l List) Sort() {
	sort.SliceStable(l, func(i, j int) bool {
		a, b := l[i], l[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Col < b.Pos.Col
	})
}

// Err returns the list as an error: nil when empty, the sorted list
// otherwise.
func (l List) Err() error {
	if len(l) == 0 {
		return nil
	}
	l.Sort()
	return l
}

// MaxDiagnostics bounds how many diagnostics one stage collects before it
// gives up; further errors are dropped and a final "too many errors" entry
// is appended by Truncate.
const MaxDiagnostics = 20

// Truncate caps l at MaxDiagnostics, appending a marker entry when
// anything was dropped.
func (l List) Truncate(file string) List {
	if len(l) <= MaxDiagnostics {
		return l
	}
	out := l[:MaxDiagnostics]
	last := out[len(out)-1]
	return append(out, &Diagnostic{File: file, Pos: last.Pos, Msg: "too many errors"})
}

// Snippet renders the source line at pos with a caret under the column:
//
//	s = s + x;
//	        ^
//
// Tabs in the source line are preserved in the caret line so the caret
// aligns in any tab width. It returns "" when the position is out of range.
func Snippet(src string, pos token.Pos) string {
	if pos.Line <= 0 {
		return ""
	}
	lines := strings.Split(src, "\n")
	if pos.Line > len(lines) {
		return ""
	}
	line := strings.TrimRight(lines[pos.Line-1], "\r")
	col := pos.Col
	if col < 1 {
		col = 1
	}
	if col > len(line)+1 {
		col = len(line) + 1
	}
	var pad strings.Builder
	for _, c := range []byte(line[:col-1]) {
		if c == '\t' {
			pad.WriteByte('\t')
		} else {
			pad.WriteByte(' ')
		}
	}
	return "\t" + line + "\n\t" + pad.String() + "^"
}

// Format renders err for the user against the source text src. Diagnostic
// lists render one canonical line per entry followed by a caret snippet;
// ICEs render their report form; any other error renders via Error(). The
// result always ends with a newline.
func Format(err error, src string) string {
	var b strings.Builder
	switch e := err.(type) {
	case List:
		for _, d := range e {
			b.WriteString(d.Error())
			b.WriteByte('\n')
			if sn := Snippet(src, d.Pos); sn != "" {
				b.WriteString(sn)
				b.WriteByte('\n')
			}
		}
	case *Diagnostic:
		b.WriteString(e.Error())
		b.WriteByte('\n')
		if sn := Snippet(src, e.Pos); sn != "" {
			b.WriteString(sn)
			b.WriteByte('\n')
		}
	case *ICE:
		b.WriteString(e.Report())
	default:
		b.WriteString(err.Error())
		b.WriteByte('\n')
	}
	return b.String()
}

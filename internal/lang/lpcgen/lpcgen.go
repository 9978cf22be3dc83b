// Package lpcgen derives structurally valid LPC programs from a byte seed.
//
// A raw-bytes fuzzer spends almost all of its budget inside the lexer and
// parser: random bytes essentially never form a type-correct program, so
// sema, codegen, the analysis pipeline, and the interpreter go unexercised.
// Program closes that gap. It treats the seed as a decision stream and emits
// a program that is type-correct by construction — loop nests over global
// arrays, reductions, conditionals, helper calls — so a fuzz target built on
// it drives the whole compile-and-run surface on every input.
//
// Program is deterministic: the same seed always yields the same source, so
// fuzzer crashers reproduce and can be checked in as regression inputs.
package lpcgen

import (
	"fmt"
	"strings"
)

// Generation limits. Small enough that any generated program compiles in
// microseconds and runs within a tight step budget; large enough to build
// nests the analysis pipeline finds interesting.
const (
	maxLoopDepth  = 3  // nesting depth of generated loop nests
	maxBlockDepth = 16 // block nesting depth, far below the parser's limit
	maxBodyLen    = 4  // statements per block
	maxExprDepth  = 3  // expression tree depth
)

// arrayLen is the length of the generated global arrays. A power of two, so
// indices can be clamped with a mask — in-range for any int value, including
// negatives, under two's-complement AND.
const arrayLen = 16

// gen consumes seed bytes as a decision stream. An exhausted stream reads
// as zero, so every prefix of a seed is itself a valid seed: byte-level
// fuzzer mutations (truncation, extension, flips) all map to programs.
type gen struct {
	seed []byte
	off  int
	b    strings.Builder

	loopVars []string // loop variables in scope, innermost last
	loopSeq  int      // next loop-variable ordinal
}

func (g *gen) next() int {
	if g.off >= len(g.seed) {
		return 0
	}
	v := int(g.seed[g.off])
	g.off++
	return v
}

// pick returns a decision in [0, n).
func (g *gen) pick(n int) int { return g.next() % n }

func (g *gen) printf(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
}

// Program derives one type-correct LPC program from seed.
func Program(seed []byte) string {
	g := &gen{seed: seed}
	g.printf("const N = %d;\n", arrayLen)
	g.printf("var a [N]int;\nvar b [N]int;\nvar f [N]float;\n")
	g.printf("var s int;\nvar t float;\n\n")

	g.printf("func helper(x int) int {\n")
	g.printf("\tif (x > %d) { return x - %d; }\n", g.pick(64), g.pick(8))
	g.printf("\treturn x * %d + 1;\n}\n\n", 1+g.pick(4))

	g.printf("func main() int {\n")
	g.initArrays()
	n := 1 + g.pick(maxBodyLen)
	for i := 0; i < n; i++ {
		g.stmt(1, 0)
	}
	g.printf("\treturn s + a[0] + b[N-1] + int(t);\n}\n")
	return g.b.String()
}

// initArrays gives the arrays seed-dependent contents so dependence
// patterns vary across inputs.
func (g *gen) initArrays() {
	c1, c2 := g.pick(7), 1+g.pick(5)
	g.printf("\tfor (var i0 int = 0; i0 < N; i0 = i0 + 1) {\n")
	g.printf("\t\ta[i0] = i0 * %d + %d;\n", c2, c1)
	g.printf("\t\tb[i0] = i0 - %d;\n", g.pick(9))
	g.printf("\t\tf[i0] = float(i0) * 0.5;\n")
	g.printf("\t}\n")
}

func (g *gen) indent(depth int) string { return strings.Repeat("\t", depth) }

// stmt emits one statement at the given block depth with loopDepth
// enclosing generated loops.
func (g *gen) stmt(depth, loopDepth int) {
	ind := g.indent(depth)
	choice := g.pick(8)
	if loopDepth >= maxLoopDepth && choice < 2 {
		choice += 2 // out of loop budget: degrade to a straight-line form
	}
	if depth >= maxBlockDepth && (choice < 2 || choice == 5) {
		choice = 2 // out of nesting budget: a straight-line store
	}
	switch choice {
	case 0: // counted for loop
		v := fmt.Sprintf("i%d", g.loopSeq)
		g.loopSeq++
		step := 1 + g.pick(3)
		g.printf("%sfor (var %s int = 0; %s < N; %s = %s + %d) {\n", ind, v, v, v, v, step)
		g.loopVars = append(g.loopVars, v)
		n := 1 + g.pick(maxBodyLen)
		for i := 0; i < n; i++ {
			g.stmt(depth+1, loopDepth+1)
		}
		g.loopVars = g.loopVars[:len(g.loopVars)-1]
		g.printf("%s}\n", ind)
	case 1: // bounded while loop
		v := fmt.Sprintf("w%d", g.loopSeq)
		g.loopSeq++
		g.printf("%svar %s int = %d;\n", ind, v, 1+g.pick(24))
		g.printf("%swhile (%s > 0) {\n", ind, v)
		g.loopVars = append(g.loopVars, v)
		n := 1 + g.pick(2)
		for i := 0; i < n; i++ {
			g.stmt(depth+1, loopDepth+1)
		}
		g.loopVars = g.loopVars[:len(g.loopVars)-1]
		g.printf("%s%s = %s - 1;\n", g.indent(depth+1), v, v)
		g.printf("%s}\n", ind)
	case 2: // array store (masked index: in range for any value)
		g.printf("%s%s[%s] = %s;\n", ind, g.pickArray(), g.index(), g.intExpr(maxExprDepth))
	case 3: // scalar reduction
		g.printf("%ss = s + %s;\n", ind, g.intExpr(maxExprDepth))
	case 4: // float accumulation
		g.printf("%st = t + f[%s] * %d.25;\n", ind, g.index(), g.pick(3))
	case 5: // conditional
		g.printf("%sif (%s) {\n", ind, g.cond())
		g.stmt(depth+1, loopDepth)
		if g.pick(2) == 1 {
			g.printf("%s} else {\n", ind)
			g.stmt(depth+1, loopDepth)
		}
		g.printf("%s}\n", ind)
	case 6: // helper call feeding the reduction
		g.printf("%ss = s + helper(%s);\n", ind, g.intExpr(2))
	default: // cross-array copy with independent indices
		g.printf("%sa[%s] = b[%s] + %d;\n", ind, g.index(), g.index(), g.pick(16))
	}
}

func (g *gen) pickArray() string {
	if g.pick(2) == 0 {
		return "a"
	}
	return "b"
}

// index yields an always-in-range index expression.
func (g *gen) index() string {
	return fmt.Sprintf("(%s) & (N - 1)", g.intExpr(2))
}

func (g *gen) cond() string {
	l, r := g.intExpr(2), g.intExpr(2)
	switch g.pick(4) {
	case 0:
		return fmt.Sprintf("%s < %s", l, r)
	case 1:
		return fmt.Sprintf("%s == %s", l, r)
	case 2:
		return fmt.Sprintf("%s >= %s", l, r)
	default:
		return fmt.Sprintf("%s != %s && s < %d", l, r, 1000+g.pick(1000))
	}
}

// intExpr yields an int-typed expression of bounded depth. Division and
// modulus keep nonzero constant divisors, so generated programs fault only
// through genuinely interesting paths, not trivial div-by-zero.
func (g *gen) intExpr(depth int) string {
	if depth <= 0 || g.pick(3) == 0 {
		return g.intLeaf()
	}
	l, r := g.intExpr(depth-1), g.intLeaf()
	switch g.pick(6) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, r)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, r)
	case 2:
		return fmt.Sprintf("(%s * %s)", l, r)
	case 3:
		return fmt.Sprintf("(%s / %d)", l, 1+g.pick(7))
	case 4:
		return fmt.Sprintf("(%s %% %d)", l, 2+g.pick(6))
	default:
		return fmt.Sprintf("(%s ^ %s)", l, r)
	}
}

func (g *gen) intLeaf() string {
	if len(g.loopVars) > 0 && g.pick(2) == 0 {
		return g.loopVars[g.pick(len(g.loopVars))]
	}
	switch g.pick(4) {
	case 0:
		return fmt.Sprintf("%d", g.pick(64))
	case 1:
		return "s"
	case 2:
		return fmt.Sprintf("a[(%d) & (N - 1)]", g.pick(64))
	default:
		return fmt.Sprintf("b[(%d) & (N - 1)]", g.pick(64))
	}
}

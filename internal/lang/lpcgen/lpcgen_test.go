package lpcgen

import (
	"testing"

	"loopapalooza/internal/lang"
)

// TestProgramCompiles: generated programs are type-correct by construction
// — every seed must survive the full front end.
func TestProgramCompiles(t *testing.T) {
	seeds := [][]byte{
		nil,
		{},
		{0},
		{255},
		{1, 2, 3, 4, 5, 6, 7, 8},
		[]byte("the quick brown fox jumps over the lazy dog"),
	}
	// A spread of pseudo-random seeds via a fixed LCG (deterministic).
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 50; i++ {
		var s []byte
		n := int(x%61) + 1
		for j := 0; j < n; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			s = append(s, byte(x>>33))
		}
		seeds = append(seeds, s)
	}
	for i, seed := range seeds {
		src := Program(seed)
		if _, err := lang.Compile("gen.lpc", src); err != nil {
			t.Errorf("seed %d: generated program does not compile: %v\n%s", i, err, src)
		}
	}
}

// TestProgramNestingBounded: a seed that picks a conditional at every
// decision still yields a program within the parser's nesting limit.
func TestProgramNestingBounded(t *testing.T) {
	for _, b := range []byte{5, 0xbd} {
		seed := make([]byte, 4096)
		for i := range seed {
			seed[i] = b
		}
		src := Program(seed)
		if _, err := lang.Compile("gen.lpc", src); err != nil {
			t.Errorf("seed of %#x bytes: generated program does not compile: %v", b, err)
		}
	}
}

// TestProgramDeterministic: same seed, same program — crashers reproduce.
func TestProgramDeterministic(t *testing.T) {
	seed := []byte{9, 42, 7, 0, 255, 13}
	if Program(seed) != Program(seed) {
		t.Error("Program is not deterministic")
	}
}

// TestProgramPrefixClosed: an exhausted seed reads as zeros, so truncating
// a seed still yields a valid program (mutation friendliness).
func TestProgramPrefixClosed(t *testing.T) {
	seed := []byte{200, 100, 50, 25, 12, 6, 3, 1}
	for n := 0; n <= len(seed); n++ {
		src := Program(seed[:n])
		if _, err := lang.Compile("gen.lpc", src); err != nil {
			t.Errorf("prefix %d: %v\n%s", n, err, src)
		}
	}
}

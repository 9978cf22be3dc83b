package core

import (
	"bytes"
	"testing"

	"loopapalooza/internal/lang/lpcgen"
)

// FuzzBytecodeDifferential is the coverage-guided arm of the bytecode
// VM's differential oracle: generator-derived programs (type-correct by
// construction) run under both execution engines, and the runs must be
// indistinguishable — same Report bits, same typed failure, same error
// text, same program output. The generator reaches deep loop nests,
// reductions, calls, and pointer chases, so this exercises lowering paths
// (fusion, phi shuffles, static loop events) no hand-written test
// enumerates.
func FuzzBytecodeDifferential(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add([]byte{255, 1, 128, 7})
	f.Add([]byte("loopapalooza"))
	f.Add([]byte("bytecode vs treewalk"))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{42, 17, 99, 3, 250, 11, 64, 128, 5, 5, 5, 5})

	cfgs := []Config{
		{Model: DOALL, Reduc: 1, Dep: 0, Fn: 2},
		{Model: PDOALL, Reduc: 1, Dep: 2, Fn: 2},
		BestHELIX(),
	}

	f.Fuzz(func(t *testing.T, seed []byte) {
		src := lpcgen.Program(seed)
		info, err := AnalyzeSource("fuzz.lpc", src)
		if err != nil {
			t.Fatalf("generated program failed to compile: %v\nsource:\n%s", err, src)
		}
		for _, cfg := range cfgs {
			optsT := WithTreewalk(fuzzRunOpts())
			var outT bytes.Buffer
			optsT.Out = &outT
			repT, errT := Run(info, cfg, optsT)

			optsB := fuzzRunOpts()
			var outB bytes.Buffer
			optsB.Out = &outB
			repB, errB := Run(info, cfg, optsB)

			classifyRunErr(t, errT, src)
			classifyRunErr(t, errB, src)
			if (errT == nil) != (errB == nil) {
				t.Fatalf("engines disagree on failure under %s: treewalk=%v bytecode=%v\nsource:\n%s",
					cfg, errT, errB, src)
			}
			if errT != nil {
				if errT.Error() != errB.Error() {
					t.Fatalf("error text divergence under %s:\ntreewalk: %v\nbytecode: %v\nsource:\n%s",
						cfg, errT, errB, src)
				}
				if Classify(errT) != Classify(errB) {
					t.Fatalf("outcome divergence under %s: %v vs %v\nsource:\n%s",
						cfg, Classify(errT), Classify(errB), src)
				}
			} else {
				if cerr := CompareReports(repT, repB); cerr != nil {
					t.Fatalf("%v under %s\nsource:\n%s", cerr, cfg, src)
				}
			}
			if !bytes.Equal(outT.Bytes(), outB.Bytes()) {
				t.Fatalf("program output divergence under %s:\ntreewalk: %q\nbytecode: %q\nsource:\n%s",
					cfg, outT.String(), outB.String(), src)
			}
		}
	})
}

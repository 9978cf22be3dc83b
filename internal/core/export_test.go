package core

import (
	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
)

// WithTreewalk returns opts with main executed by the tree-walking
// interpreter, the reference the bytecode VM is checked against.
func WithTreewalk(opts RunOptions) RunOptions {
	return withOracle(opts, func(o *oracle) { o.exec = treewalk })
}

// WithMapTracker returns opts with the run's dependence storage on the map
// tracker, the reference the shadow memory is checked against: a one-class
// engine's tracker, or a multi-class run's shared store.
func WithMapTracker(opts RunOptions) RunOptions {
	return withOracle(opts, func(o *oracle) {
		o.tracker = func() depTracker { return newMapTracker[writeRec]() }
		o.store = func(*analysis.ModuleInfo) factStore { return mapFacts{newMapTracker[factRec]()} }
	})
}

// Census counts the work of multi-class runs' shared trackers: the
// (memory record, loop level) pairs they probe, and the shadow pages they
// hold when they release their storage.
type Census struct{ Probes, Pages int64 }

// WithCensus returns opts with every multi-class run's shadow store
// counted into c. Runs sharing c must not overlap.
func WithCensus(opts RunOptions, c *Census) RunOptions {
	return withOracle(opts, func(o *oracle) {
		o.store = func(info *analysis.ModuleInfo) factStore { return censusStore{newShadowFacts(info), c} }
	})
}

type censusStore struct {
	shadowFacts
	c *Census
}

func (s censusStore) scan(level int, evs []memEv, at factRec, spLimit int64, facts []fact) []fact {
	s.c.Probes += int64(len(evs))
	return s.shadowFacts.scan(level, evs, at, spLimit, facts)
}

func (s censusStore) release() {
	for _, lvl := range s.levels {
		for _, dir := range lvl.pages {
			for _, pg := range dir {
				if pg != nil {
					s.c.Pages++
				}
			}
		}
	}
	s.shadowFacts.release()
}

// withOracle returns opts with a copy of its oracle changed by set, so
// options that share an oracle never see each other's changes.
func withOracle(opts RunOptions, set func(*oracle)) RunOptions {
	var o oracle
	if opts.oracle != nil {
		o = *opts.oracle
	}
	set(&o)
	opts.oracle = &o
	return opts
}

// EngineClasses returns the number of engine classes cfgs coalesce into
// on info, which picks a run's consumer: one class is fed event by event
// through its engine's hooks, more share sealed chunks.
func EngineClasses(info *analysis.ModuleInfo, cfgs []Config) (int, error) {
	set, err := prepareEngines(info, cfgs)
	if err != nil {
		return 0, err
	}
	return len(set.engines), nil
}

// treewalk runs main on the tree-walking interpreter.
func treewalk(info *analysis.ModuleInfo, cfg interp.Config, args []interp.Val) (interp.Result, error) {
	return interp.New(info, cfg).Run("main", args...)
}

// DeterminismPrograms are the hand-written programs the differential
// matrix runs under every paper configuration: rare memory conflicts
// (infrequent), cactus-stack frames inside loop bodies (stack) and an
// unpredictable register LCD that HELIX-dep1 lowers to memory (dep1).
var DeterminismPrograms = []struct{ Name, Src string }{
	{"infrequent", infrequentSrc},
	{"stack", stackSrc},
	{"dep1", dep1Src},
}

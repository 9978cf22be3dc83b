package core

// mapTracker is the reference dependence storage the shadow memory is
// checked against: one map of records per nesting level, replaced on
// enter, so the oracle stays obviously correct while the shadow tracker
// specializes. With writeRec records it is a one-class engine's
// depTracker; mapFacts makes it a run tracker's factStore.
type mapTracker[R any] struct {
	levels map[int]map[int64]R
}

func newMapTracker[R any]() *mapTracker[R] {
	return &mapTracker[R]{levels: map[int]map[int64]R{}}
}

func (m *mapTracker[R]) enter(level int) { m.levels[level] = map[int64]R{} }
func (m *mapTracker[R]) release()        {}
func (m *mapTracker[R]) load(level, _ int, _, addr int64) (R, bool) {
	rec, ok := m.levels[level][addr]
	return rec, ok
}
func (m *mapTracker[R]) store(level, _ int, _, addr int64, rec R) {
	m.levels[level][addr] = rec
}

// mapFacts is the map tracker as a factStore: scan is the naive loop.
type mapFacts struct{ *mapTracker[factRec] }

func (m mapFacts) scan(level int, evs []memEv, at factRec, spLimit int64, facts []fact) []fact {
	writes := m.levels[level]
	for i, ev := range evs {
		if ev.reg == regStack && ev.addr < spLimit {
			continue
		}
		if ev.kind == memStore {
			w := at
			w.raw += ev.tick
			writes[ev.addr] = w
			continue
		}
		if rec, ok := writes[ev.addr]; ok && rec.iter < at.iter {
			facts = append(facts, fact{mem: int32(i), level: int32(level), rec: rec})
		}
	}
	return facts
}

package core

// mapTracker is the reference dependence tracker the shadow memory is
// checked against: one map of write records per active instance, and
// batch methods that are the naive loops, so the oracle stays obviously
// correct while the shadow tracker specializes.
type mapTracker struct {
	writes map[*instance]map[int64]writeRec
}

func newMapTracker() *mapTracker {
	return &mapTracker{writes: map[*instance]map[int64]writeRec{}}
}

func (m *mapTracker) enter(inst *instance) { m.writes[inst] = map[int64]writeRec{} }
func (m *mapTracker) drop(inst *instance)  { delete(m.writes, inst) }
func (m *mapTracker) loadAt(inst *instance, _ int, _ int64, addr int64) (writeRec, bool) {
	rec, ok := m.writes[inst][addr]
	return rec, ok
}
func (m *mapTracker) storeAt(inst *instance, _ int, _ int64, addr int64, rec writeRec) {
	m.writes[inst][addr] = rec
}
func (m *mapTracker) memRun(inst *instance, evs []memEv,
	iter, offBase, spLimit int64, hitIdx []int32, hitRecs []writeRec) int {
	writes := m.writes[inst]
	nh := 0
	for i := range evs {
		ev := &evs[i]
		if ev.reg == regStack && ev.addr < spLimit {
			continue
		}
		if ev.kind == memStore {
			writes[ev.addr] = writeRec{iter: iter, off: offBase + ev.tick}
			continue
		}
		if rec, ok := writes[ev.addr]; ok {
			hitIdx[nh], hitRecs[nh] = int32(i), rec
			nh++
		}
	}
	return nh
}

package predict

import (
	"runtime"
	"testing"
	"testing/quick"
)

func feed(p Predictor, vals ...uint64) {
	for _, v := range vals {
		p.Train(v)
	}
}

func TestLastValue(t *testing.T) {
	p := &LastValue{}
	if _, ok := p.Predict(); ok {
		t.Error("untrained predictor claims readiness")
	}
	feed(p, 7)
	if v, ok := p.Predict(); !ok || v != 7 {
		t.Errorf("predict = %d,%v want 7,true", v, ok)
	}
	feed(p, 9)
	if v, _ := p.Predict(); v != 9 {
		t.Errorf("predict = %d, want 9", v)
	}
}

func TestStride(t *testing.T) {
	p := &Stride{}
	feed(p, 10, 13)
	if v, ok := p.Predict(); !ok || v != 16 {
		t.Errorf("predict = %d,%v want 16,true", v, ok)
	}
	feed(p, 16, 19)
	if v, _ := p.Predict(); v != 22 {
		t.Errorf("predict = %d, want 22", v)
	}
	// Negative strides via wraparound arithmetic.
	q := &Stride{}
	feed(q, 100, 90)
	if v, _ := q.Predict(); v != 80 {
		t.Errorf("negative stride predict = %d, want 80", v)
	}
}

func TestTwoDeltaFiltersOneOffJump(t *testing.T) {
	p := &TwoDeltaStride{}
	feed(p, 10, 20, 30) // committed stride 10
	if v, _ := p.Predict(); v != 40 {
		t.Fatalf("predict = %d, want 40", v)
	}
	feed(p, 1000) // one-off jump; stride must stay 10
	if v, _ := p.Predict(); v != 1010 {
		t.Errorf("after jump predict = %d, want 1010 (stride kept)", v)
	}
	// Plain stride would have committed the jump delta instead.
	s := &Stride{}
	feed(s, 10, 20, 30, 1000)
	if v, _ := s.Predict(); v == 1010 {
		t.Error("plain stride unexpectedly filtered the jump")
	}
}

func TestFCMLearnsRepeatingSequence(t *testing.T) {
	p := &FCM{}
	seq := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	// Two warm-up passes, then it must predict every element.
	for pass := 0; pass < 2; pass++ {
		for _, v := range seq {
			p.Train(v)
		}
	}
	hits := 0
	for _, v := range seq {
		if pred, ok := p.Predict(); ok && pred == v {
			hits++
		}
		p.Train(v)
	}
	if hits != len(seq) {
		t.Errorf("FCM hits = %d/%d on learned periodic sequence", hits, len(seq))
	}
}

func TestHybridCoversComponents(t *testing.T) {
	// Constant sequence: last-value catches it.
	h := NewHybrid()
	h.Observe(5)
	for i := 0; i < 10; i++ {
		if !h.Observe(5) {
			t.Fatal("hybrid missed constant value")
		}
	}
	// Arithmetic sequence: stride catches it.
	h2 := NewHybrid()
	h2.Observe(0)
	h2.Observe(3)
	for i := uint64(2); i < 12; i++ {
		if !h2.Observe(i * 3) {
			t.Fatalf("hybrid missed stride value %d", i*3)
		}
	}
}

func TestHybridHitRate(t *testing.T) {
	h := NewHybrid()
	for i := 0; i < 100; i++ {
		h.Observe(uint64(i))
	}
	if r := h.HitRate(); r < 0.9 {
		t.Errorf("hit rate on counter = %f, want >= 0.9", r)
	}
	c, total := h.Stats()
	if total != 100 || c < 90 {
		t.Errorf("stats = %d/%d", c, total)
	}
}

func TestHybridOnRandomIsPoor(t *testing.T) {
	h := NewHybrid()
	x := uint64(0x9E3779B97F4A7C15)
	hits := 0
	for i := 0; i < 2000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if h.Observe(x) {
			hits++
		}
	}
	if hits > 200 {
		t.Errorf("hybrid 'predicted' %d/2000 random values", hits)
	}
}

func TestPerfect(t *testing.T) {
	var p Perfect
	if !p.Observe(123) || p.HitRate() != 1 {
		t.Error("Perfect must always hit")
	}
}

// Property: for any sequence, a Hybrid hit on step i implies at least one
// component predictor (trained on the prefix) predicted the value.
func TestHybridPropertyConsistency(t *testing.T) {
	f := func(seq []uint64) bool {
		h := NewHybrid()
		shadow := []Predictor{&LastValue{}, &Stride{}, &TwoDeltaStride{}, &FCM{}}
		for _, v := range seq {
			anyHit := false
			for _, p := range shadow {
				if pred, ok := p.Predict(); ok && pred == v {
					anyHit = true
				}
			}
			got := h.Observe(v)
			if got != anyHit {
				return false
			}
			for _, p := range shadow {
				p.Train(v)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: stride predictor is exact on any affine sequence a + i*d after
// two observations.
func TestStrideAffineProperty(t *testing.T) {
	f := func(a, d uint64) bool {
		p := &Stride{}
		p.Train(a)
		p.Train(a + d)
		for i := uint64(2); i < 10; i++ {
			want := a + i*d
			got, ok := p.Predict()
			if !ok || got != want {
				return false
			}
			p.Train(want)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refFCM is the flat-table FCM the sparse one replaced: every one of the
// 4,096 contexts has a slot from construction on. It is the reference the
// differential tests compare FCM against.
type refFCM struct {
	hist  [fcmOrder]uint64
	n     int
	table [fcmContexts]struct {
		value uint64
		valid bool
	}
}

func (p *refFCM) index() uint64 {
	h := uint64(14695981039346656037)
	for _, v := range p.hist {
		h ^= v
		h *= 1099511628211
	}
	return h & (fcmContexts - 1)
}

func (p *refFCM) Predict() (uint64, bool) {
	if p.n < fcmOrder {
		return 0, false
	}
	e := p.table[p.index()]
	return e.value, e.valid
}

func (p *refFCM) Train(v uint64) {
	if p.n >= fcmOrder {
		e := &p.table[p.index()]
		e.value, e.valid = v, true
	}
	copy(p.hist[:], p.hist[1:])
	p.hist[fcmOrder-1] = v
	if p.n < fcmOrder {
		p.n++
	}
}

// fcmAgrees feeds seq to a fresh FCM and the reference, comparing their
// predictions before every step, and returns the FCM for inspection.
func fcmAgrees(t testing.TB, seq []uint64) *FCM {
	t.Helper()
	p, ref := &FCM{}, &refFCM{}
	for i, v := range seq {
		got, gotOK := p.Predict()
		want, wantOK := ref.Predict()
		if got != want || gotOK != wantOK {
			t.Fatalf("step %d of %d (%d contexts written): Predict = %d,%v, reference %d,%v",
				i, len(seq), p.used, got, gotOK, want, wantOK)
		}
		p.Train(v)
		ref.Train(v)
	}
	return p
}

// xorshift returns n pseudo-random values from a fixed seed.
func xorshift(n int) []uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	seq := make([]uint64, n)
	for i := range seq {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		seq[i] = x
	}
	return seq
}

// TestFCMDifferentialQuick: on arbitrary sequences, FCM predicts exactly
// what the flat-table reference predicts at every step.
func TestFCMDifferentialQuick(t *testing.T) {
	f := func(seq []uint64) bool {
		fcmAgrees(t, seq)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFCMDifferentialPeriodic: periodic sequences of random values, of
// every period from 1 to 5,000, two periods and a context long. Distinct
// histories outnumber the contexts they hash to from a few hundred values
// on, so contexts collide and the last writer must win in both tables;
// from about 3,000 on, more than half the contexts are written and the
// table turns dense mid-sequence.
func TestFCMDifferentialPeriodic(t *testing.T) {
	const maxPeriod = 5000
	vals := xorshift(maxPeriod)
	seq := make([]uint64, 0, 2*maxPeriod+fcmOrder)
	dense := 0
	for period := 1; period <= maxPeriod; period++ {
		seq = seq[:0]
		for i := 0; i < 2*period+fcmOrder; i++ {
			seq = append(seq, vals[i%period])
		}
		if fcmAgrees(t, seq).valid != nil {
			dense++
		}
	}
	if dense < 1000 {
		t.Errorf("%d periodic sequences turned the table dense, want at least 1000", dense)
	}
}

// TestFCMDifferentialDense: a random stream writes more than half of the
// contexts, so FCM must switch to dense storage and keep agreeing.
func TestFCMDifferentialDense(t *testing.T) {
	p := fcmAgrees(t, xorshift(20000))
	if p.valid == nil || p.used <= fcmContexts/2 {
		t.Errorf("after 20,000 random values: %d contexts written, dense %v; want more than %d and dense",
			p.used, p.valid != nil, fcmContexts/2)
	}
}

// FuzzFCMDifferential checks FCM against the flat-table reference on
// fuzzed streams. The first byte sets a warm-up of up to 4,080 random
// values, enough to reach dense storage; every later byte is one value
// from a 16-letter alphabet, so contexts repeat and predictions hit.
func FuzzFCMDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4})
	f.Add([]byte{200, 5, 5, 5, 5, 5, 6, 5, 5, 5, 5, 6})
	f.Add([]byte{255, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		seq := xorshift(16 * int(data[0]))
		for _, b := range data[1:] {
			seq = append(seq, uint64(b%16)*0x9E3779B97F4A7C15)
		}
		fcmAgrees(t, seq)
	})
}

// hybridSink keeps TestHybridAllocation's hybrid on the heap, as the
// engine's hybrids are.
var hybridSink *Hybrid

// TestHybridAllocation: a hybrid that sees a short periodic stream, as a
// loop's predictor usually does, allocates its FCM contexts sparsely
// instead of a 64 KiB table.
func TestHybridAllocation(t *testing.T) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	hybridSink = NewHybrid()
	for i := 0; i < 256; i++ {
		hybridSink.Observe(uint64(i%8) * 1000003)
	}
	runtime.ReadMemStats(&ms)
	grew := ms.TotalAlloc - before
	if c, total := hybridSink.Stats(); c == 0 || total != 256 {
		t.Fatalf("stats = %d/%d, want hits out of 256", c, total)
	}
	t.Logf("NewHybrid plus 256 observations allocated %d bytes", grew)
	if grew >= 4<<10 {
		t.Errorf("NewHybrid plus 256 observations allocated %d bytes, want < 4096", grew)
	}
}

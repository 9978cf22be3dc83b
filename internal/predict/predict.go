// Package predict implements the value predictors of Loopapalooza §III-C:
// last-value, stride, 2-delta stride, and a Finite Context Method (FCM)
// predictor, combined under the paper's "perfect hybridization" assumption
// (a value counts as predicted when any component predictor is correct).
package predict

// Predictor predicts the next value of a 64-bit sequence. Predict returns
// the prediction for the next value and whether the predictor is ready to
// predict at all; Train feeds the actual observed value.
type Predictor interface {
	// Predict returns the predicted next value.
	Predict() (uint64, bool)
	// Train records the actual next value.
	Train(v uint64)
	// Name identifies the predictor.
	Name() string
}

// LastValue predicts that the next value repeats the previous one.
type LastValue struct {
	last  uint64
	ready bool
}

// Name implements Predictor.
func (p *LastValue) Name() string { return "last-value" }

// Predict implements Predictor.
func (p *LastValue) Predict() (uint64, bool) { return p.last, p.ready }

// Train implements Predictor.
func (p *LastValue) Train(v uint64) { p.last, p.ready = v, true }

// Stride predicts last + (last - previous).
type Stride struct {
	last   uint64
	stride uint64
	seen   int
}

// Name implements Predictor.
func (p *Stride) Name() string { return "stride" }

// Predict implements Predictor.
func (p *Stride) Predict() (uint64, bool) { return p.last + p.stride, p.seen >= 2 }

// Train implements Predictor.
func (p *Stride) Train(v uint64) {
	if p.seen > 0 {
		p.stride = v - p.last
	}
	p.last = v
	p.seen++
}

// TwoDeltaStride updates its stride only when the same delta is observed
// twice in a row, which filters one-off jumps (Sazeides & Smith).
type TwoDeltaStride struct {
	last    uint64
	stride  uint64 // committed stride
	lastDel uint64 // most recent delta
	seen    int
}

// Name implements Predictor.
func (p *TwoDeltaStride) Name() string { return "2-delta" }

// Predict implements Predictor.
func (p *TwoDeltaStride) Predict() (uint64, bool) { return p.last + p.stride, p.seen >= 2 }

// Train implements Predictor.
func (p *TwoDeltaStride) Train(v uint64) {
	if p.seen > 0 {
		d := v - p.last
		if d == p.lastDel {
			p.stride = d
		}
		p.lastDel = d
	}
	p.last = v
	p.seen++
}

// fcmOrder is the context length of the FCM predictor.
const fcmOrder = 4

// fcmContexts is the number of FCM contexts: a context is 12 bits of a
// hash of the history.
const fcmContexts = 1 << 12

// fcmMinSlots is the sparse table's first size.
const fcmMinSlots = 8

// FCM is an order-4 Finite Context Method predictor: a hash of the last
// four values selects one of 4,096 direct-mapped contexts, each holding
// the value seen next in it (the last writer wins).
//
// Only the contexts written are stored. Most loop-carried value streams
// write a handful, so the table starts sparse: an open-addressed table of
// (context, value) slots, doubled whenever it would pass half full. Once
// more than half the contexts are in use it becomes dense: one value per
// context plus a validity bitmap, 32.5 KiB.
type FCM struct {
	hist [fcmOrder]uint64
	n    int
	// ctx is the context of hist, valid once n == fcmOrder.
	ctx uint16
	// used counts the contexts written.
	used int
	// Sparse (valid == nil): vals[i] is the value of context keys[i]-1,
	// 0 marking an empty slot, found by find's linear probe.
	// Dense (valid != nil): vals[ctx] is the value of ctx and bit ctx of
	// valid says whether it was written.
	keys  []uint16
	vals  []uint64
	valid []uint64
}

// Name implements Predictor.
func (p *FCM) Name() string { return "fcm" }

func (p *FCM) index() uint16 {
	h := uint64(14695981039346656037)
	for _, v := range p.hist {
		h ^= v
		h *= 1099511628211
	}
	return uint16(h & (fcmContexts - 1))
}

// Predict implements Predictor.
func (p *FCM) Predict() (uint64, bool) {
	if p.n < fcmOrder {
		return 0, false
	}
	return p.lookup(p.ctx)
}

// Train implements Predictor.
func (p *FCM) Train(v uint64) {
	if p.n >= fcmOrder {
		p.store(p.ctx, v)
	}
	copy(p.hist[:], p.hist[1:])
	p.hist[fcmOrder-1] = v
	if p.n < fcmOrder {
		p.n++
	}
	if p.n == fcmOrder {
		p.ctx = p.index()
	}
}

// lookup returns the value last written in context ctx.
func (p *FCM) lookup(ctx uint16) (uint64, bool) {
	if p.valid != nil {
		return p.vals[ctx], p.valid[ctx>>6]&(1<<(ctx&63)) != 0
	}
	if p.keys == nil {
		return 0, false
	}
	if i, ok := p.find(ctx); ok {
		return p.vals[i], true
	}
	return 0, false
}

// find returns the sparse slot holding ctx, or the empty slot where ctx
// goes. The contexts of a structured stream often share their low bits,
// so the linear probe starts from bits of ctx times an odd constant,
// which every bit of ctx reaches.
func (p *FCM) find(ctx uint16) (int, bool) {
	mask := len(p.keys) - 1
	for i := int(uint32(ctx)*0x9E3779B1>>20) & mask; ; i = (i + 1) & mask {
		switch p.keys[i] {
		case ctx + 1:
			return i, true
		case 0:
			return i, false
		}
	}
}

// store writes v as the value of context ctx.
func (p *FCM) store(ctx uint16, v uint64) {
	if p.valid != nil {
		p.vals[ctx] = v
		if w, bit := &p.valid[ctx>>6], uint64(1)<<(ctx&63); *w&bit == 0 {
			*w |= bit
			p.used++
		}
		return
	}
	if p.keys == nil {
		p.keys = make([]uint16, fcmMinSlots)
		p.vals = make([]uint64, fcmMinSlots)
	}
	i, ok := p.find(ctx)
	if !ok {
		if 2*(p.used+1) > len(p.keys) {
			p.grow()
			p.store(ctx, v)
			return
		}
		p.keys[i] = ctx + 1
		p.used++
	}
	p.vals[i] = v
}

// grow doubles the sparse table, or makes it dense when the doubled table
// would have more slots than there are contexts.
func (p *FCM) grow() {
	keys, vals := p.keys, p.vals
	if 2*len(keys) > fcmContexts {
		p.keys = nil
		p.vals = make([]uint64, fcmContexts)
		p.valid = make([]uint64, fcmContexts/64)
	} else {
		p.keys = make([]uint16, 2*len(keys))
		p.vals = make([]uint64, 2*len(keys))
	}
	p.used = 0
	for i, k := range keys {
		if k != 0 {
			p.store(k-1, vals[i])
		}
	}
}

// Hybrid combines the four component predictors under perfect
// hybridization: an observation counts as correctly predicted if any ready
// component predicted it (paper §III-C). The zero value is ready to use.
type Hybrid struct {
	last     LastValue
	stride   Stride
	twoDelta TwoDeltaStride
	fcm      FCM
	correct  int64
	total    int64
}

// NewHybrid returns the paper's four-way hybrid.
func NewHybrid() *Hybrid { return &Hybrid{} }

// predicts reports whether p is ready and predicts v.
func predicts(p Predictor, v uint64) bool {
	pred, ok := p.Predict()
	return ok && pred == v
}

// Observe feeds the next actual value and reports whether the hybrid
// predicted it.
func (h *Hybrid) Observe(v uint64) bool {
	hit := predicts(&h.last, v) || predicts(&h.stride, v) ||
		predicts(&h.twoDelta, v) || predicts(&h.fcm, v)
	h.last.Train(v)
	h.stride.Train(v)
	h.twoDelta.Train(v)
	h.fcm.Train(v)
	h.total++
	if hit {
		h.correct++
	}
	return hit
}

// HitRate returns the fraction of observations predicted correctly.
func (h *Hybrid) HitRate() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.correct) / float64(h.total)
}

// Stats returns (correct, total) observation counts.
func (h *Hybrid) Stats() (int64, int64) { return h.correct, h.total }

// Perfect is a predictor stand-in for the dep3 configuration: every value is
// "predicted". It satisfies the same Observe interface as Hybrid.
type Perfect struct{ total int64 }

// Observe always reports a hit.
func (p *Perfect) Observe(uint64) bool { p.total++; return true }

// HitRate is always 1 once observations were made.
func (p *Perfect) HitRate() float64 { return 1 }

// Observer is the common interface of Hybrid and Perfect.
type Observer interface {
	// Observe feeds the next value, reporting a correct prediction.
	Observe(v uint64) bool
	// HitRate is the fraction predicted.
	HitRate() float64
}
